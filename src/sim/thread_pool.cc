#include "sim/thread_pool.hh"

namespace rsep::sim
{

ThreadPool::ThreadPool(unsigned nthreads)
{
    if (nthreads == 0)
        nthreads = 1;
    workers.reserve(nthreads);
    for (unsigned i = 0; i < nthreads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lk(mtx);
        stopping = true;
    }
    workCv.notify_all();
    for (auto &t : workers)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        tasks.push_back(std::move(task));
        ++pending;
    }
    workCv.notify_one();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(mtx);
    for (;;) {
        workCv.wait(lk, [this] { return stopping || !tasks.empty(); });
        if (tasks.empty())
            return; // stopping, and nothing left to run.
        std::function<void()> task = std::move(tasks.back());
        tasks.pop_back();
        lk.unlock();
        task();
        task = nullptr; // release the closure outside the lock.
        lk.lock();
        if (--pending == 0)
            idleCv.notify_all();
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mtx);
    idleCv.wait(lk, [this] { return pending == 0; });
}

} // namespace rsep::sim
