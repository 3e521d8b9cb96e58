/**
 * @file
 * The serve daemon's admission gate: at most `slots` requests execute,
 * at most `waitCapacity` wait first in first out, the rest are shed.
 * Uncontended, admit() and release() take the lock once and wake no
 * thread. release() hands its slot straight to the longest waiter.
 */
#ifndef VDRAM_SERVE_ADMISSION_GATE_H
#define VDRAM_SERVE_ADMISSION_GATE_H

#include <condition_variable>
#include <deque>
#include <mutex>

#include "util/metrics.h"

namespace vdram {

class AdmissionGate {
  public:
    struct Occupancy { long long waiting, running; };

    AdmissionGate(long long slots, long long waitCapacity)
        : slots_(slots), waitCapacity_(waitCapacity) {}

    /** Take a slot, waiting in line if there is room; false: shed. */
    bool admit()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (running_ < slots_) {
            ++running_;
            publish();
            return true;
        }
        if (static_cast<long long>(waiters_.size()) >= waitCapacity_)
            return false;
        Waiter self;
        waiters_.push_back(&self);
        publish();
        self.wake.wait(lock, [&self] { return self.granted; });
        return true;
    }

    /** Give the slot to the longest waiter, or free it. */
    void release()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (waiters_.empty()) {
            --running_;
        } else {
            // Under the lock: once granted, the waiter may destroy `wake`.
            waiters_.front()->granted = true;
            waiters_.front()->wake.notify_one();
            waiters_.pop_front();
        }
        publish();
    }

    Occupancy occupancy() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return {static_cast<long long>(waiters_.size()), running_};
    }

  private:
    struct Waiter { std::condition_variable wake; bool granted = false; };

    void publish() // the caller holds mutex_
    {
        if (metricsEnabled()) {
            globalMetrics().gauge("serve.queue.depth").set(
                static_cast<long long>(waiters_.size()));
            globalMetrics().gauge("serve.inflight").set(running_);
        }
    }

    const long long slots_;
    const long long waitCapacity_;
    mutable std::mutex mutex_;
    long long running_ = 0;
    std::deque<Waiter*> waiters_; ///< longest first, on their own stacks
};

} // namespace vdram

#endif // VDRAM_SERVE_ADMISSION_GATE_H
