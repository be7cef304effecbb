#include "db/btree.hh"

#include "sim/logging.hh"

namespace odbsim::db
{

ImplicitBTree::ImplicitBTree(BlockId base, std::uint64_t capacity,
                             std::uint32_t keys_per_leaf,
                             std::uint32_t fanout)
    : base_(base), capacity_(capacity), keysPerLeaf_(keys_per_leaf),
      fanout_(fanout)
{
    odbsim_assert(capacity >= 1, "btree capacity must be positive");
    odbsim_assert(keys_per_leaf >= 1 && fanout >= 2,
                  "bad btree parameters");

    std::uint64_t nodes = (capacity + keys_per_leaf - 1) / keys_per_leaf;
    unsigned lvl = 0;
    levelNodes_[lvl++] = nodes;
    while (nodes > 1) {
        odbsim_assert(lvl < maxBtreeHeight, "btree too tall; capacity ",
                      capacity);
        nodes = (nodes + fanout - 1) / fanout;
        levelNodes_[lvl++] = nodes;
    }
    height_ = lvl;

    // Lay levels out top-down so the (hot) root/internals share a
    // compact extent prefix: root first, leaves last.
    BlockId cursor = base_;
    for (unsigned l = height_; l-- > 0;) {
        levelBase_[l] = cursor;
        cursor += levelNodes_[l];
    }
    totalBlocks_ = cursor - base_;
}

IndexPath
ImplicitBTree::lookup(std::uint64_t key) const
{
    odbsim_assert(key < capacity_, "btree key ", key,
                  " out of range (capacity ", capacity_, ")");
    IndexPath path;
    path.height = height_;

    const std::uint64_t leaf_idx = key / keysPerLeaf_;
    path.leafSlot = static_cast<std::uint32_t>(key % keysPerLeaf_);

    // Walk from root (level height-1) down to the leaf (level 0); the
    // node index at level l is the leaf index divided by fanout^l.
    std::uint64_t divisor = 1;
    for (unsigned l = 1; l < height_; ++l)
        divisor *= fanout_;
    for (unsigned l = height_; l-- > 0;) {
        const std::uint64_t node_idx = leaf_idx / divisor;
        path.node[height_ - 1 - l] = levelBase_[l] + node_idx;
        divisor /= fanout_;
        if (divisor == 0)
            divisor = 1;
    }
    return path;
}

BlockId
ImplicitBTree::leafOf(std::uint64_t key) const
{
    odbsim_assert(key < capacity_, "btree key ", key,
                  " out of range (capacity ", capacity_, ")");
    return levelBase_[0] + key / keysPerLeaf_;
}

} // namespace odbsim::db
