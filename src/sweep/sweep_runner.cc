#include "sweep/sweep_runner.hh"

#include <utility>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace slip {

SweepRunner::SweepRunner(unsigned jobs, ResultCache cache)
    : _cache(std::move(cache))
{
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;
    _workers.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

SweepRunner::~SweepRunner()
{
    {
        std::unique_lock<std::mutex> lock(_mu);
        _stop = true;
    }
    _queueCv.notify_all();
    for (auto &w : _workers)
        w.join();
    // Abandoned tasks (destruction with a non-drained queue) get a
    // broken promise, which surfaces as an exception at get().
}

std::shared_future<RunResult>
SweepRunner::enqueue(const RunSpec &spec)
{
    const std::string key = spec.key();
    std::shared_future<RunResult> fut;
    {
        std::unique_lock<std::mutex> lock(_mu);
        auto it = _memo.find(key);
        if (it != _memo.end()) {
            ++_stats.memoHits;
            static obs::Counter &memo_ctr =
                obs::counter("sweep.memo_hits");
            memo_ctr.add();
            return it->second;
        }
        Task task{spec, {}};
        fut = task.promise.get_future().share();
        _memo.emplace(key, fut);
        _queue.push_back(std::move(task));
    }
    _queueCv.notify_one();
    return fut;
}

RunResult
SweepRunner::run(const RunSpec &spec)
{
    return enqueue(spec).get();
}

void
SweepRunner::wait()
{
    std::unique_lock<std::mutex> lock(_mu);
    _idleCv.wait(lock,
                 [this] { return _queue.empty() && _inFlight == 0; });
}

SweepRunner::Stats
SweepRunner::stats() const
{
    std::unique_lock<std::mutex> lock(_mu);
    return _stats;
}

std::vector<SweepRunner::RunRecord>
SweepRunner::records() const
{
    std::unique_lock<std::mutex> lock(_mu);
    return _records;
}

void
SweepRunner::setProgress(ProgressFn fn)
{
    std::unique_lock<std::mutex> lock(_progressMu);
    _progress = std::move(fn);
}

void
SweepRunner::setStart(StartFn fn)
{
    std::unique_lock<std::mutex> lock(_progressMu);
    _start = std::move(fn);
}

void
SweepRunner::workerLoop()
{
    std::unique_lock<std::mutex> lock(_mu);
    for (;;) {
        _queueCv.wait(lock, [this] { return _stop || !_queue.empty(); });
        if (_queue.empty())
            return;  // only on stop
        // Move-construct the task: a default-constructed one would run
        // SweepOptions(), whose getenv races a caller's setenv.
        Task task = std::move(_queue.front());
        _queue.pop_front();
        ++_inFlight;
        lock.unlock();
        execute(task);
        lock.lock();
        --_inFlight;
        if (_queue.empty() && _inFlight == 0)
            _idleCv.notify_all();
    }
}

void
SweepRunner::execute(Task &task)
{
    {
        std::unique_lock<std::mutex> lock(_progressMu);
        if (_start)
            _start(task.spec.key(), task.spec.label());
    }

    const std::uint64_t t0 = obs::monotonicNowNs();

    RunResult r;
    bool cached = true;
    try {
        if (!_cache.lookup(task.spec.key(), r)) {
            cached = false;
            r = executeRun(task.spec);
            _cache.store(task.spec.key(), r);
        }
    } catch (...) {
        task.promise.set_exception(std::current_exception());
        return;
    }

    const double secs =
        obs::monotonicSecondsBetween(t0, obs::monotonicNowNs());

    RunRecord rec;
    rec.key = task.spec.key();
    rec.label = task.spec.label();
    rec.seconds = secs;
    rec.cached = cached;
    static obs::Counter &cached_ctr = obs::counter("sweep.cache_hits");
    static obs::Counter &exec_ctr = obs::counter("sweep.executed");
    (cached ? cached_ctr : exec_ctr).add();
    {
        std::unique_lock<std::mutex> lock(_mu);
        if (cached)
            ++_stats.cacheHits;
        else
            ++_stats.executed;
        _stats.simSeconds += secs;
        rec.done = ++_completed;
        rec.total = _memo.size();
        _records.push_back(rec);
    }

    // Deliver the value before the progress hook so a slow printer
    // never delays consumers of the future.
    task.promise.set_value(std::move(r));

    std::unique_lock<std::mutex> lock(_progressMu);
    if (_progress)
        _progress(rec);
}

} // namespace slip
