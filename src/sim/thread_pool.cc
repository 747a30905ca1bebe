#include "sim/thread_pool.hh"

namespace aw::sim {

unsigned
ThreadPool::resolveThreads(unsigned threads)
{
    if (threads > 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = resolveThreads(threads);
    _workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        _workers.push_back(std::make_unique<Worker>());
    _threads.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        _threads.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(_mtx);
        _stop = true;
    }
    _workCv.notify_all();
    for (auto &t : _threads)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    Worker &w = *_workers[_nextWorker];
    _nextWorker = (_nextWorker + 1) % _workers.size();
    {
        // Push and account under _mtx so (a) a worker that races
        // the push cannot decrement _pending before the increment
        // and (b) the state change is ordered against the sleep in
        // workerLoop (lock order is always _mtx then queue mutex).
        std::lock_guard<std::mutex> lock(_mtx);
        {
            std::lock_guard<std::mutex> qlock(w.mtx);
            w.queue.push_back(std::move(task));
        }
        ++_pending;
    }
    _workCv.notify_one();
}

std::future<void>
ThreadPool::async(std::function<void()> task)
{
    // std::function needs a copyable target, hence the shared
    // promise rather than a packaged_task.
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> handle = done->get_future();
    submit([task = std::move(task), done] {
        task();
        done->set_value();
    });
    return handle;
}

std::optional<std::function<void()>>
ThreadPool::take(std::size_t self)
{
    // Own queue first (back: newest, cache-warm) ...
    {
        Worker &w = *_workers[self];
        std::lock_guard<std::mutex> qlock(w.mtx);
        if (!w.queue.empty()) {
            auto task = std::move(w.queue.back());
            w.queue.pop_back();
            return task;
        }
    }
    // ... then steal from a peer (front: oldest).
    for (std::size_t off = 1; off < _workers.size(); ++off) {
        Worker &w = *_workers[(self + off) % _workers.size()];
        std::lock_guard<std::mutex> qlock(w.mtx);
        if (!w.queue.empty()) {
            auto task = std::move(w.queue.front());
            w.queue.pop_front();
            return task;
        }
    }
    return std::nullopt;
}

bool
ThreadPool::haveWork() const
{
    for (const auto &w : _workers) {
        std::lock_guard<std::mutex> qlock(w->mtx);
        if (!w->queue.empty())
            return true;
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    while (true) {
        auto task = take(self);
        if (!task) {
            // submit() pushes under _mtx, so holding _mtx across
            // the haveWork() probe and the sleep closes the
            // lost-wakeup window.
            std::unique_lock<std::mutex> lock(_mtx);
            _workCv.wait(lock,
                         [&] { return _stop || haveWork(); });
            if (_stop)
                return;
            continue;
        }
        (*task)();
        {
            std::lock_guard<std::mutex> lock(_mtx);
            --_pending;
            if (_pending == 0)
                _doneCv.notify_all();
        }
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(_mtx);
    _doneCv.wait(lock, [&] { return _pending == 0; });
}

} // namespace aw::sim
