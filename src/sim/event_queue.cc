#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace odbsim
{

std::uint32_t
EventQueue::scheduleSlot(Tick when)
{
#ifndef NDEBUG
    odbsim_assert(when >= curTick_,
                  "event scheduled in the past: ", when, " < ", curTick_);
#endif
    if (when < curTick_)
        when = curTick_; // release builds clamp to "fire now"

    std::uint32_t idx;
    if (freeHead_ != noSlot) {
        idx = freeHead_;
        freeHead_ = slotAt(idx).next;
    } else {
        if ((slotCount_ & (chunkSlots - 1)) == 0)
            chunks_.push_back(std::make_unique<Slot[]>(chunkSlots));
        idx = slotCount_++;
    }
    heap_.push_back(HeapItem{when, nextSeq_++, idx});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return idx;
}

void
EventQueue::fireTop()
{
    const HeapItem top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    curTick_ = top.when;
    ++fired_;
    // The callback runs in place — slot addresses are stable and this
    // slot is not on the freelist yet, so a reentrant schedule()
    // cannot clobber the callable mid-call.
    Slot &s = slotAt(top.idx);
    s.cb();
    s.cb.reset();
    s.next = freeHead_;
    freeHead_ = top.idx;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    fireTop();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit)
        fireTop();
    curTick_ = std::max(curTick_, limit);
    return curTick_;
}

Tick
EventQueue::runAll()
{
    while (step()) {
    }
    return curTick_;
}

} // namespace odbsim
