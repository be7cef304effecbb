/**
 * @file
 * Free-list-pooled intrusive FIFO.
 *
 * Generalizes the pooled waiter-queue pattern from db::LockManager:
 * nodes live in one contiguous vector, linked by 32-bit indices, and
 * retired nodes go on a free list for reuse — so steady-state churn at
 * or below the high-water population never touches the heap. That is
 * the property the zero-allocation replay gate needs from every
 * hot-path queue (disk request queues, DBWR work queues, the scheduler
 * ready queue).
 *
 * Growth events are observable via allocations(): perf tests pin the
 * counter after warm-up and assert it stays flat.
 */

#ifndef ODBSIM_SIM_POOLED_FIFO_HH
#define ODBSIM_SIM_POOLED_FIFO_HH

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

namespace odbsim::sim
{

/** Pooled FIFO of @p T values linked by pool indices. */
template <typename T>
class PooledFifo
{
  public:
    /** Index sentinel: "no node". */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    bool empty() const { return head_ == npos; }
    std::size_t size() const { return size_; }

    /** Pre-size the node pool for @p n simultaneously queued items. */
    void
    reserve(std::size_t n)
    {
        if (n > pool_.capacity()) {
            pool_.reserve(n);
            ++allocations_;
        }
    }

    /**
     * Pool growth events (perf-test hook). Steady-state churn at or
     * below the high-water population must not advance this.
     */
    std::uint64_t allocations() const { return allocations_; }

    /** Append a value; returns its node index (stable until popped). */
    std::uint32_t
    pushBack(T value)
    {
        const std::uint32_t n = allocNode();
        pool_[n].value = std::move(value);
        pool_[n].next = npos;
        if (tail_ == npos) {
            head_ = n;
        } else {
            pool_[tail_].next = n;
        }
        tail_ = n;
        ++size_;
        return n;
    }

    /** Oldest value (undefined when empty). */
    T &front() { return pool_[head_].value; }
    const T &front() const { return pool_[head_].value; }

    /** Remove and return the oldest value. */
    T
    popFront()
    {
        const std::uint32_t n = head_;
        head_ = pool_[n].next;
        if (head_ == npos)
            tail_ = npos;
        T out = std::move(pool_[n].value);
        freeNode(n);
        --size_;
        return out;
    }

  private:
    struct Node
    {
        T value{};
        std::uint32_t next = npos;
    };

    std::uint32_t
    allocNode()
    {
        std::uint32_t n;
        if (freeHead_ != npos) {
            n = freeHead_;
            freeHead_ = pool_[n].next;
        } else {
            if (pool_.size() == pool_.capacity())
                ++allocations_;
            n = static_cast<std::uint32_t>(pool_.size());
            pool_.emplace_back();
        }
        return n;
    }

    void
    freeNode(std::uint32_t n)
    {
        // Reset the payload so pooled nodes do not pin resources the
        // value owned (e.g. captured completion callbacks).
        pool_[n].value = T{};
        pool_[n].next = freeHead_;
        freeHead_ = n;
    }

    std::vector<Node> pool_;
    std::uint32_t head_ = npos;
    std::uint32_t tail_ = npos;
    std::uint32_t freeHead_ = npos;
    std::size_t size_ = 0;
    std::uint64_t allocations_ = 0;
};

} // namespace odbsim::sim

#endif // ODBSIM_SIM_POOLED_FIFO_HH
