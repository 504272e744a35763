/**
 * @file
 * The parallel sweep engine.
 *
 * SweepRunner owns a fixed pool of worker threads and a deduplicated
 * queue of RunSpecs. Each spec is simulated at most once per process
 * (in-process memoization via shared futures) and at most once across
 * processes (through the on-disk ResultCache). Every simulation is an
 * independent System with its own workload generators, so execution
 * order and thread count cannot change any result: a --jobs 8 sweep is
 * byte-identical to a --jobs 1 sweep.
 *
 * Blocking calls (run / wait) must come from outside the pool; worker
 * tasks never enqueue, so the pool cannot deadlock on itself.
 */

#ifndef SLIP_SWEEP_SWEEP_RUNNER_HH
#define SLIP_SWEEP_SWEEP_RUNNER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sweep/result_cache.hh"
#include "sweep/run_spec.hh"

namespace slip {

class SweepRunner
{
  public:
    /** Completion record of one run (also the progress payload). */
    struct RunRecord
    {
        std::string key;
        std::string label;
        double seconds = 0;   ///< wall-clock of this run
        bool cached = false;  ///< served from the on-disk cache
        std::size_t done = 0; ///< runs completed so far (this one incl.)
        std::size_t total = 0;///< distinct runs enqueued so far
    };

    /** Aggregate counters (consistent snapshot under the lock). */
    struct Stats
    {
        std::size_t executed = 0;  ///< simulated from scratch
        std::size_t cacheHits = 0; ///< loaded from disk
        std::size_t memoHits = 0;  ///< duplicate enqueues coalesced
        double simSeconds = 0;     ///< summed per-run wall-clock
    };

    /** Called after each run completes; serialized by the runner. */
    using ProgressFn = std::function<void(const RunRecord &)>;

    /**
     * Called when a worker picks a run up, before the cache probe or
     * simulation (the NDJSON `start` event). Serialized with the
     * progress hook on one mutex, so start/finish interleavings are
     * well-ordered per run.
     */
    using StartFn =
        std::function<void(const std::string &key,
                           const std::string &label)>;

    /**
     * @param jobs worker threads; 0 = std::thread::hardware_concurrency
     */
    explicit SweepRunner(unsigned jobs = 0,
                         ResultCache cache = ResultCache::fromEnv());

    /** Drains the queue, then joins the workers. */
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    unsigned jobs() const { return unsigned(_workers.size()); }
    const ResultCache &cache() const { return _cache; }

    /**
     * Add @p spec to the sweep. Duplicate keys return the future of
     * the original submission; nothing is ever simulated twice.
     */
    std::shared_future<RunResult> enqueue(const RunSpec &spec);

    /** Enqueue and block for the result (callers outside the pool). */
    RunResult run(const RunSpec &spec);

    /** Block until every enqueued run has completed. */
    void wait();

    Stats stats() const;

    /** Per-run completion records, in completion order. */
    std::vector<RunRecord> records() const;

    void setProgress(ProgressFn fn);
    void setStart(StartFn fn);

  private:
    struct Task
    {
        RunSpec spec;
        /** spec.key(), computed once by enqueue: a `trace:` key hashes
         * the whole trace file. */
        std::string key;
        std::promise<RunResult> promise;
    };

    void workerLoop();
    void execute(Task &task);

    ResultCache _cache;

    mutable std::mutex _mu;
    std::condition_variable _queueCv;  ///< workers wait for tasks
    std::condition_variable _idleCv;   ///< wait() waits for drain
    std::deque<Task> _queue;
    std::unordered_map<std::string, std::shared_future<RunResult>> _memo;
    std::size_t _inFlight = 0;   ///< tasks popped but not finished
    std::size_t _completed = 0;
    bool _stop = false;
    Stats _stats;
    std::vector<RunRecord> _records;

    std::mutex _progressMu;
    ProgressFn _progress;
    StartFn _start;

    std::vector<std::thread> _workers;
};

} // namespace slip

#endif // SLIP_SWEEP_SWEEP_RUNNER_HH
