/**
 * @file
 * The experiment matrix's thread pool: one mutex, one stack of tasks
 * popped newest-first, and a fixed set of workers.
 *
 * runCells is the only submitter, and its tasks are identical closures
 * that each take the next cell off one cursor, so the pool's order
 * never decides which cell runs. Newest-first keeps a daemon's order
 * between concurrent requests: the request submitted last starts
 * first.
 *
 * Determinism contract: the pool schedules WHEN tasks run, never WHAT
 * they compute — callers give every task its own seed and its own
 * output slot, so results are bit-identical at any thread count.
 */

#ifndef RSEP_SIM_THREAD_POOL_HH
#define RSEP_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rsep::sim
{

class ThreadPool
{
  public:
    /** Start @p nthreads workers (clamped to >= 1). */
    explicit ThreadPool(unsigned nthreads);

    /** Drains remaining work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Push a task; the newest pending task runs first. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned threadCount() const { return unsigned(workers.size()); }

  private:
    void workerLoop();

    std::mutex mtx; ///< guards tasks, pending and stopping.
    std::vector<std::function<void()>> tasks; ///< back = newest.
    std::condition_variable workCv; ///< workers: a task or stop arrived.
    std::condition_variable idleCv; ///< waiters: pending may have hit 0.
    size_t pending = 0;             ///< submitted, not yet finished.
    bool stopping = false;

    std::vector<std::thread> workers; ///< last: they use the above.
};

} // namespace rsep::sim

#endif // RSEP_SIM_THREAD_POOL_HH
