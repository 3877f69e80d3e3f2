/**
 * @file
 * WorkerPool: the thread pool under SweepRunner's job batches, its
 * only user.
 *
 * The pool exposes a single primitive, parallelFor(n, fn): run fn(i)
 * for every i in [0, n) and return when all calls finished. Work is
 * distributed by an atomic index counter that the *caller drains too*,
 * which gives two properties:
 *  - deadlock freedom under nesting and concurrent calls: a caller
 *    never blocks on a worker that could itself be waiting — it chews
 *    through the remaining indices itself;
 *  - graceful degradation: with 0 workers (threads <= 1, or a
 *    single-core host) parallelFor is a plain loop on the caller, so
 *    threading is a pure wall-clock lever, never a correctness one.
 *
 * Determinism contract: parallelFor promises nothing about execution
 * order, so callers must only hand it tasks that are mutually
 * independent (each writes its own slots). SweepRunner does exactly
 * that, which is why jobs=1 and jobs=N are bit-identical.
 */

#ifndef JETTY_SIM_WORKER_POOL_HH
#define JETTY_SIM_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace jetty::sim
{

/** A fixed pool of worker threads with a caller-participating
 *  parallel-for. */
class WorkerPool
{
  public:
    /**
     * @param threads total parallelism including the calling thread:
     *        the pool spawns threads - 1 workers. 0 and 1 spawn none
     *        (parallelFor runs inline).
     */
    explicit WorkerPool(unsigned threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** The total parallelism this pool was built for (>= 1). */
    unsigned threads() const { return threads_; }

    /**
     * Invoke fn(i) for every i in [0, n), on the caller and the
     * workers, returning once every call completed. fn must tolerate
     * concurrent invocation with distinct i.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    /** One parallelFor invocation's shared state. */
    struct ParJob
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> completed{0};
        std::mutex mu;
        std::condition_variable done;
    };

    /** Pull indices from @p job until they run out. */
    static void drain(const std::shared_ptr<ParJob> &job);

    void workerLoop();

    unsigned threads_;
    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stop_ = false;
};

} // namespace jetty::sim

#endif // JETTY_SIM_WORKER_POOL_HH
