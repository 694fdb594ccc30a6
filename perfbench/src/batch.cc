#include <deque>
#include <future>
#include <numeric>

#include "common/rng.hh"
#include "load.hh"

namespace perfbench {

std::vector<std::size_t>
assignUtterances(std::size_t count, std::size_t pool, std::uint64_t seed)
{
    asr::Rng rng(asr::deriveSeed(seed, 0x61737367));  // "assg"
    std::vector<std::size_t> round(pool), out;
    std::iota(round.begin(), round.end(), 0);
    while (out.size() < count) {
        for (std::size_t i = round.size(); i > 1; --i)
            std::swap(round[i - 1], round[rng.below(i)]);
        for (std::size_t i = 0; i < round.size() && out.size() < count; ++i)
            out.push_back(round[i]);
    }
    return out;
}

double
cpuSeconds(const std::vector<int> &tids)
{
    double total = 0.0;
    for (const int tid : tids)
        total += threadCpuSeconds(tid);
    return total;
}

PhaseResult
runClosedLoop(const WorkloadSpec &spec, Stack &stack,
              const std::vector<asr::frontend::AudioSignal> &pool,
              std::uint64_t seed, double seconds, Tracer &tracer)
{
    using namespace std::chrono_literals;
    PhaseResult out;
    asr::api::Engine &engine = *stack.engine;

    // More than the phase can complete; consumed in order.
    const std::vector<std::size_t> order =
        assignUtterances(std::size_t(4096), pool.size(), seed);

    struct Job
    {
        std::size_t utt = 0;
        std::future<asr::pipeline::RecognitionResult> result;
        Clock::time_point submitted;
        std::uint64_t stream = 0;
    };
    std::deque<Job> inflight;

    out.statsBefore = engine.stats();
    const double cpu0 = cpuSeconds(stack.engineTids);
    const Clock::time_point start = Clock::now();
    const Clock::time_point stopSubmitting =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    Clock::time_point lastCompletion = start;

    std::size_t next = 0;
    const auto submit = [&] {
        Job job;
        job.utt = order[next % order.size()];
        job.stream = ++next;
        job.submitted = Clock::now();
        job.result = engine.submit(pool[job.utt]);
        tracer.record("submit", job.submitted, Clock::now(), job.stream);
        inflight.push_back(std::move(job));
        ++out.attempted;
    };
    for (unsigned i = 0; i < spec.inFlight; ++i)
        submit();

    Clock::time_point lastPass = Clock::now();
    Clock::time_point nextThreadSample = lastPass;
    while (!inflight.empty()) {
        const Clock::time_point now = Clock::now();
        // The generator's lateness in a closed loop: how long a
        // finished job can sit before this loop notices it.
        out.lateMs.push_back(msBetween(lastPass, now));
        lastPass = now;
        if (now >= nextThreadSample) {
            out.maxThreads = std::max(out.maxThreads,
                                      unsigned(threadIds().size()));
            nextThreadSample = now + 100ms;
        }

        bool progressed = false;
        for (auto it = inflight.begin(); it != inflight.end();) {
            if (it->result.wait_for(0s) != std::future_status::ready) {
                ++it;
                continue;
            }
            const Clock::time_point ready = Clock::now();
            try {
                const asr::pipeline::RecognitionResult r = it->result.get();
                Served s;
                s.utt = it->utt;
                s.hyp = Hypothesis{r.words, r.score};
                s.ok = true;
                // submit() hands over the whole utterance: every chunk
                // is due at once, and the first words a caller sees
                // are the final result's.
                s.finalMs = msBetween(it->submitted, ready);
                s.firstWordsMs = s.finalMs;
                s.searchStats = r.searchStats;
                s.inWindow = ready < stopSubmitting;
                out.served.push_back(std::move(s));
                ++out.completed;
                if (ready < stopSubmitting) {
                    out.audioSeconds += pool[it->utt].durationSeconds();
                    lastCompletion = ready;
                }
            } catch (const std::exception &) {
                ++out.failed;
            }
            tracer.record("submit->ready", it->submitted, ready,
                          it->stream);
            it = inflight.erase(it);
            progressed = true;
            if (ready < stopSubmitting) {
                submit();
                it = inflight.begin();  // submit() may reallocate
            }
        }
        if (!progressed && !inflight.empty())
            inflight.front().result.wait_for(1ms);
    }
    out.wallSeconds = secondsBetween(start, lastCompletion);
    out.phaseSeconds = secondsBetween(start, Clock::now());
    out.engineCpuSeconds = cpuSeconds(stack.engineTids) - cpu0;
    out.statsAfter = engine.stats();
    return out;
}

} // namespace perfbench
