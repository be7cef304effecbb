/**
 * @file
 * parallelFor: run independent host-side jobs, such as the grid points
 * of a scaling study, on a few threads. The simulator itself stays
 * single-threaded and deterministic; only self-contained jobs run
 * concurrently, never parts of one simulation's event loop.
 *
 * Determinism contract: jobs must not share mutable state (each
 * ExperimentRunner::run call builds its own System/Database/Workload
 * and derives every RNG stream from its per-run seed), and callers
 * collect results by index, never by completion order. The thread
 * count then changes only which thread runs an index, never the result
 * stored for it.
 */

#ifndef ODBSIM_SIM_PARALLEL_FOR_HH
#define ODBSIM_SIM_PARALLEL_FOR_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace odbsim::sim
{

/**
 * Run fn(0) … fn(n-1) and return when every call has finished.
 *
 * @param jobs Host threads: 0 = one per hardware thread (at least 1),
 *        1 = a plain loop on the calling thread, N = N threads. The
 *        count is clamped to @p n; a single thread runs inline.
 *
 * Threads claim the next index from one shared counter, so indices
 * start in ascending order. A throwing call does not cancel the
 * others: every index runs, and the exception of the lowest failing
 * index is rethrown here after the threads are joined.
 */
template <typename Fn>
void
parallelFor(unsigned jobs, std::size_t n, Fn fn)
{
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t threads = std::min<std::size_t>(jobs, n);

    std::atomic<std::size_t> next{0};
    std::mutex exc_mutex;
    std::exception_ptr exc;
    std::size_t exc_index = n;
    const auto claim = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(exc_mutex);
                if (i < exc_index) {
                    exc = std::current_exception();
                    exc_index = i;
                }
            }
        }
    };
    if (threads <= 1) {
        claim();
    } else {
        std::vector<std::jthread> workers;
        workers.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            workers.emplace_back(claim);
    } // the jthreads join here
    if (exc)
        std::rethrow_exception(exc);
}

} // namespace odbsim::sim

#endif // ODBSIM_SIM_PARALLEL_FOR_HH
