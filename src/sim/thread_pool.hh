/**
 * @file
 * Work-stealing thread pool.
 *
 * Each worker owns a deque; submissions are distributed round-robin
 * and an idle worker steals from the front of a peer's deque. The
 * pool lives in the base sim layer so both the experiment engine
 * (sweep points across a grid) and the cluster layer (servers within
 * one fleet point) can partition independent work without an
 * exp -> cluster dependency cycle.
 */

#ifndef AW_SIM_THREAD_POOL_HH
#define AW_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace aw::sim {

/**
 * Work-stealing thread pool. submit() may only be called from the
 * thread that owns the pool; tasks must not throw.
 */
class ThreadPool
{
  public:
    /** @param threads  worker count; 0 = hardware concurrency. */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. */
    void submit(std::function<void()> task);

    /**
     * Enqueue one task and return its completion handle: the future
     * becomes ready once the task has run, and everything the task
     * wrote is visible to the thread that waits on it.
     */
    std::future<void> async(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned threads() const
    {
        return static_cast<unsigned>(_workers.size());
    }

    /** The worker count a thread argument resolves to. */
    static unsigned resolveThreads(unsigned threads);

  private:
    struct Worker
    {
        std::deque<std::function<void()>> queue;
        std::mutex mtx;
    };

    void workerLoop(std::size_t self);
    std::optional<std::function<void()>> take(std::size_t self);
    bool haveWork() const;

    std::vector<std::unique_ptr<Worker>> _workers;
    std::vector<std::thread> _threads;
    std::size_t _nextWorker = 0; //!< round-robin submission cursor

    std::mutex _mtx;
    std::condition_variable _workCv; //!< wakes idle workers
    std::condition_variable _doneCv; //!< wakes wait()
    std::size_t _pending = 0;        //!< submitted, not yet finished
    bool _stop = false;
};

} // namespace aw::sim

#endif // AW_SIM_THREAD_POOL_HH
