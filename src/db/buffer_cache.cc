#include "db/buffer_cache.hh"

#include "sim/logging.hh"

namespace odbsim::db
{

BufferCache::BufferCache(std::uint64_t frames)
    : frameMod_(frames), totalFrames_(frames),
      sentinel_(static_cast<std::uint32_t>(frames))
{
    odbsim_assert(frames >= 8, "buffer cache needs at least 8 frames");
    frames_.resize(frames + 1);
    frames_[sentinel_].prev = sentinel_;
    frames_[sentinel_].next = sentinel_;
    // Residency can never exceed the frame count, so after this the
    // index never rehashes (mapAllocations() flat).
    map_.reserve(frames);
}

void
BufferCache::unlink(std::uint32_t f)
{
    Frame &fr = frames_[f];
    frames_[fr.prev].next = fr.next;
    frames_[fr.next].prev = fr.prev;
}

void
BufferCache::pushFront(std::uint32_t f)
{
    Frame &fr = frames_[f];
    fr.next = frames_[sentinel_].next;
    fr.prev = sentinel_;
    frames_[fr.next].prev = f;
    frames_[sentinel_].next = f;
}

BufferLookup
BufferCache::lookup(BlockId b)
{
    ++gets_;
    const std::uint32_t *slot = map_.find(narrow(b));
    if (!slot) {
        ++misses_;
        return BufferLookup{false, 0};
    }
    const std::uint32_t f = *slot;
    unlink(f);
    pushFront(f);
    return BufferLookup{true, f};
}

BufferVictim
BufferCache::allocate(BlockId b)
{
    odbsim_assert(map_.find(narrow(b)) == nullptr,
                  "allocate for already-resident block ", b);
    BufferVictim out;

    std::uint32_t f;
    if (nextFree_ < totalFrames_) {
        f = static_cast<std::uint32_t>(nextFree_++);
    } else {
        // Evict from the LRU tail, skipping frames with in-flight DMA.
        f = frames_[sentinel_].prev;
        while (f != sentinel_ && frames_[f].ioPending)
            f = frames_[f].prev;
        odbsim_assert(f != sentinel_, "all frames are I/O pending");
        Frame &victim = frames_[f];
        out.hadBlock = true;
        out.evictedBlock = victim.block;
        out.wasDirty = victim.dirty;
        if (victim.dirty)
            ++dirtyEvictions_;
        map_.erase(victim.block);
        unlink(f);
    }

    Frame &fr = frames_[f];
    fr.block = narrow(b);
    fr.dirty = false;
    fr.ioPending = true;
    map_.findOrInsert(fr.block) = f;
    pushFront(f);
    out.frame = f;
    return out;
}

void
BufferCache::fillComplete(std::uint64_t frame)
{
    frames_[frame].ioPending = false;
}

void
BufferCache::markDirty(std::uint64_t frame)
{
    frames_[frame].dirty = true;
}

void
BufferCache::prefill(BlockId b, bool dirty)
{
    if (nextFree_ >= totalFrames_)
        return;
    // One probe: finds a resident block (left untouched) or claims
    // the slot a new one goes in. With a free frame the population is
    // below the reserved frame count, so this never rehashes.
    bool inserted;
    std::uint32_t &slot = map_.findOrInsert(narrow(b), inserted);
    if (!inserted)
        return;
    const std::uint32_t f = static_cast<std::uint32_t>(nextFree_++);
    slot = f;
    Frame &fr = frames_[f];
    fr.block = narrow(b);
    fr.dirty = dirty;
    fr.ioPending = false;
    pushFront(f);
}

void
BufferCache::markClean(BlockId b)
{
    const std::uint32_t *f = map_.find(narrow(b));
    if (f)
        frames_[*f].dirty = false;
}

void
BufferCache::resetStats()
{
    gets_ = 0;
    misses_ = 0;
    dirtyEvictions_ = 0;
}

} // namespace odbsim::db
