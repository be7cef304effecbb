/**
 * @file
 * The discrete-event simulation kernel: events, the global event queue,
 * and the Simulator driver that advances simulated time.
 *
 * Events scheduled for the same tick fire in scheduling order (FIFO),
 * which keeps runs deterministic for a fixed seed.
 *
 * The queue is built for the hot path: callbacks live in a chunked
 * slab of reusable slots, and callback captures up to
 * EventQueue::smallCallbackBytes are stored inline. Slot addresses are
 * stable — chunks are never reallocated — so a callback is constructed
 * directly in its slot at schedule() time and invoked in place when it
 * fires: scheduling performs no heap allocation and no type-erased
 * moves once the slab is warm. The firing order is kept by one binary
 * heap of 24-byte POD (when, seq, slot) entries.
 */

#ifndef ODBSIM_SIM_EVENT_QUEUE_HH
#define ODBSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_function.hh"
#include "sim/types.hh"

namespace odbsim
{

/** Type of SystemConfig::eventQueue and RunKnobs::eventQueue, which
 *  have no effect; kept only because perfbench/staged.cc assigns
 *  them. */
enum class EventQueueKind : std::uint8_t
{
    heap,
};

namespace sim
{

/** Type of SystemConfig::faults and RunKnobs::faults, which have no
 *  effect; kept only because perfbench/staged.cc assigns them. */
struct FaultConfig
{};

} // namespace sim

/**
 * Time-ordered queue of callback events.
 */
class EventQueue
{
  public:
    /** Captures up to this size are stored inline (no allocation). */
    static constexpr std::size_t smallCallbackBytes = 112;

    using Callback = SmallFunction<void(), smallCallbackBytes>;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * Contract: @p when must be >= curTick(). Debug builds enforce
     * this with a panic; release builds clamp a past tick to curTick()
     * so the event still fires (after all events already pending at
     * the current tick).
     *
     * The callable is constructed directly in its slab slot — pass
     * the lambda itself (not a pre-wrapped std::function) to stay on
     * the allocation-free path.
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        slotAt(scheduleSlot(when)).cb = std::forward<F>(cb);
    }

    /** Schedule a callback after a relative delay. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&cb)
    {
        schedule(curTick_ + delay, std::forward<F>(cb));
    }

    /** True if no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /**
     * Fire the next event (advancing curTick to its scheduled time).
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until the queue drains or simulated time reaches the limit.
     * Events scheduled exactly at @p limit do fire.
     * @return the tick at which execution stopped.
     */
    Tick run(Tick limit);

    /** Run until the queue is empty. */
    Tick runAll();

    /** Total number of events fired so far. */
    std::uint64_t eventsFired() const { return fired_; }

  private:
    static constexpr std::uint32_t noSlot = 0xffffffffu;
    /** Slots per slab chunk (chunks are never moved, so slot
     *  addresses are stable across slab growth). */
    static constexpr std::uint32_t chunkShift = 9;
    static constexpr std::uint32_t chunkSlots = 1u << chunkShift;

    /** One slab entry: the callback, and the freelist link while the
     *  slot is free. */
    struct Slot
    {
        Callback cb;
        std::uint32_t next = noSlot;
    };

    /** Heap entry: ordering key plus the slab index — POD, 24 bytes. */
    struct HeapItem
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    /** Max-heap comparator under which the earliest event is on top. */
    struct Later
    {
        bool
        operator()(const HeapItem &a, const HeapItem &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Slot &
    slotAt(std::uint32_t idx)
    {
        return chunks_[idx >> chunkShift][idx & (chunkSlots - 1)];
    }

    /** Clamp/assert @p when, claim a slot and push its heap entry;
     *  the caller fills the slot's callback.
     *  @return the claimed slot's index. */
    std::uint32_t scheduleSlot(Tick when);

    /** Pop the earliest entry and fire its callback. */
    void fireTop();

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t slotCount_ = 0;
    std::vector<HeapItem> heap_;
    std::uint32_t freeHead_ = noSlot;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
};

} // namespace odbsim

#endif // ODBSIM_SIM_EVENT_QUEUE_HH
