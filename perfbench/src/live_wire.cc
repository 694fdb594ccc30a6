#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <queue>
#include <unordered_map>

#include "common/rng.hh"
#include "load.hh"
#include "net/socket.hh"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
namespace net = asr::net;

constexpr std::size_t kChunkSamples = 160;  // 10 ms at 16 kHz
constexpr auto kChunk = 10ms;
/** A FINAL later than this after the end of speech is a failure. */
constexpr double kFinalLimitMs = 2000.0;

Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** One loopback connection with its unsent bytes. */
struct Conn
{
    net::Socket sock;
    net::FrameReader reader;
    std::vector<std::uint8_t> out;
    std::size_t outOff = 0;
    std::uint64_t written = 0;   //!< bytes ever written
    std::uint64_t queued = 0;    //!< bytes ever queued
    /** (end byte, queued at, stream, span parent) of queued PUSHes. */
    struct Pending
    {
        std::uint64_t end;
        Clock::time_point at;
        std::uint64_t stream;
        std::uint64_t parent;
    };
    std::deque<Pending> pushes;
    std::unordered_map<std::uint32_t, std::size_t> streams;  //!< id -> idx
    bool dead = false;
};

/** One stream's schedule and progress. */
struct Stream
{
    std::size_t utt = 0;
    unsigned conn = 0;
    std::uint32_t id = 0;
    Clock::time_point arrival;  //!< speech starts; OPEN is sent
    std::size_t chunks = 0;
    std::size_t next = 0;       //!< next chunk to push
    bool opened = false;
    bool done = false;
    bool failed = false;
    bool openAcked = false;
    std::uint64_t span = 0;     //!< reserved id of the stream span
    /** Send times of outstanding OPEN/PARTIAL requests, in order. */
    std::deque<Clock::time_point> polls;
    Clock::time_point finishSent;
    Served served;

    Clock::time_point firstDue() const { return arrival + kChunk; }
    Clock::time_point
    endOfSpeech() const
    {
        return arrival + kChunk * std::int64_t(chunks);
    }
    Clock::time_point
    nextDue() const
    {
        return opened ? arrival + kChunk * std::int64_t(next + 1)
                      : arrival;
    }
};

class WireLoad
{
  public:
    WireLoad(const WorkloadSpec &spec, Stack &stack,
               const std::vector<asr::frontend::AudioSignal> &pool,
               Tracer &tracer)
        : spec(spec), stack(stack), pool(pool), tracer(tracer)
    {
    }

    PhaseResult run(std::uint64_t seed, double seconds);

  private:
    void connect();
    void schedule(std::uint64_t seed, double seconds);
    void fire(std::size_t idx, Clock::time_point now);
    void flush(Conn &c);
    void receive(Conn &c, unsigned ci);
    void handle(Conn &c, unsigned ci, const net::Frame &f);
    void finishStream(Stream &s, bool failed);
    void dropConnection(unsigned ci);
    void queue(Conn &c, net::FrameType type, std::uint32_t id,
               std::span<const std::uint8_t> payload);
    bool requestStats();

    const WorkloadSpec &spec;
    Stack &stack;
    const std::vector<asr::frontend::AudioSignal> &pool;
    Tracer &tracer;

    std::vector<Conn> conns;
    std::vector<Stream> streams;
    std::size_t open = 0;  //!< streams not yet done
    Clock::time_point start;
    PhaseResult out;
    std::vector<std::uint8_t> scratch;
};

void
WireLoad::connect()
{
    conns.resize(spec.connections);
    for (Conn &c : conns) {
        std::string err;
        c.sock = net::connectTcp("127.0.0.1", stack.server->port(), err);
        if (!c.sock.valid() || !net::setNonBlocking(c.sock.fd(), true)) {
            std::fprintf(stderr, "perfbench: connect failed: %s\n",
                         err.c_str());
            c.dead = true;
            continue;
        }
        ++out.connections;
    }
}

void
WireLoad::schedule(std::uint64_t seed, double seconds)
{
    // Poisson arrivals conditioned on their count: n uniform times
    // over the phase, sorted.
    const std::size_t n = std::max<std::size_t>(
        1, std::size_t(std::lround(spec.streamsPerSecond * seconds)));
    asr::Rng rng(asr::deriveSeed(seed, 0x61727276));  // "arrv"
    std::vector<double> at(n);
    for (double &t : at)
        t = rng.uniform(0.0, seconds);
    std::sort(at.begin(), at.end());
    const std::vector<std::size_t> utts =
        assignUtterances(n, pool.size(), seed);

    streams.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        Stream &s = streams[i];
        s.utt = utts[i];
        s.conn = unsigned(i % conns.size());
        s.id = std::uint32_t(i + 1);
        s.arrival = start + toDuration(at[i]);
        s.chunks = (pool[s.utt].samples.size() + kChunkSamples - 1) /
                   kChunkSamples;
        s.served.utt = s.utt;
        conns[s.conn].streams[s.id] = i;
    }
    open = n;
    out.attempted = n;
}

void
WireLoad::queue(Conn &c, net::FrameType type, std::uint32_t id,
                  std::span<const std::uint8_t> payload)
{
    const std::size_t before = c.out.size();
    net::appendFrame(c.out, type, id, payload);
    c.queued += c.out.size() - before;
    ++out.framesSent;
}

void
WireLoad::fire(std::size_t idx, Clock::time_point now)
{
    Stream &s = streams[idx];
    Conn &c = conns[s.conn];
    out.lateMs.push_back(msBetween(s.nextDue(), now));
    if (!s.opened) {
        s.opened = true;
        s.span = tracer.reserve();
        queue(c, net::FrameType::Open, s.id, {});
        s.polls.push_back(now);
        return;
    }
    const auto &samples = pool[s.utt].samples;
    const std::size_t lo = s.next * kChunkSamples;
    const std::size_t hi = std::min(samples.size(), lo + kChunkSamples);
    scratch.clear();
    net::encodeSamples(scratch, std::span<const float>(samples).subspan(
                                    lo, hi - lo));
    queue(c, net::FrameType::Push, s.id, scratch);
    c.pushes.push_back({c.queued, now, s.id, s.span});
    queue(c, net::FrameType::Partial, s.id, {});
    s.polls.push_back(now);
    if (++s.next == s.chunks) {
        queue(c, net::FrameType::Finish, s.id, {});
        s.finishSent = now;
    }
}

void
WireLoad::flush(Conn &c)
{
    while (!c.dead && c.outOff < c.out.size()) {
        const ssize_t n =
            ::send(c.sock.fd(), c.out.data() + c.outOff,
                   c.out.size() - c.outOff, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            dropConnection(unsigned(&c - conns.data()));
            return;
        }
        c.outOff += std::size_t(n);
        c.written += std::uint64_t(n);
    }
    const Clock::time_point now = Clock::now();
    while (!c.pushes.empty() && c.pushes.front().end <= c.written) {
        const Conn::Pending &p = c.pushes.front();
        out.sendBlockMs.push_back(msBetween(p.at, now));
        tracer.record("push", p.at, now, p.stream, p.parent);
        c.pushes.pop_front();
    }
    if (c.outOff == c.out.size()) {
        c.out.clear();
        c.outOff = 0;
    }
}

void
WireLoad::finishStream(Stream &s, bool failed)
{
    if (s.done)
        return;
    s.done = true;
    s.failed = failed;
    s.served.ok = !failed;
    --open;
}

void
WireLoad::dropConnection(unsigned ci)
{
    Conn &c = conns[ci];
    if (c.dead)
        return;
    c.dead = true;
    c.sock.close();
    for (Stream &s : streams)
        if (s.conn == ci)
            finishStream(s, true);
}

void
WireLoad::receive(Conn &c, unsigned ci)
{
    std::uint8_t buf[1 << 16];
    for (;;) {
        const ssize_t n = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
        if (n > 0) {
            c.reader.feed(std::span<const std::uint8_t>(buf, std::size_t(n)));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        dropConnection(ci);  // closed by the server, or an error
        return;
    }
    net::Frame f;
    while (c.reader.next(f))
        handle(c, ci, f);
    if (c.reader.malformed())
        dropConnection(ci);
}

void
WireLoad::handle(Conn &c, unsigned ci, const net::Frame &f)
{
    const Clock::time_point now = Clock::now();
    ++out.framesReceived;
    if (f.type == net::FrameType::RespStats) {
        out.haveWireStats = net::decodeStatsReply(f.payload, out.wireStats);
        return;
    }
    const auto it = c.streams.find(f.streamId);
    if (it == c.streams.end()) {
        dropConnection(ci);  // a reply for no stream of ours
        return;
    }
    Stream &s = streams[it->second];
    switch (f.type) {
    case net::FrameType::RespPartial: {
        net::PartialResult p;
        if (!net::decodePartial(f.payload, p) || s.polls.empty()) {
            finishStream(s, true);
            return;
        }
        const Clock::time_point sent = s.polls.front();
        s.polls.pop_front();
        if (!s.openAcked) {
            s.openAcked = true;
            out.openRttMs.push_back(msBetween(sent, now));
            tracer.record("open", sent, now, s.id, s.span);
        } else {
            out.partialRttMs.push_back(msBetween(sent, now));
            tracer.record("partial", sent, now, s.id, s.span);
        }
        if (!p.words.empty() && s.served.firstWordsMs < 0)
            s.served.firstWordsMs = msBetween(s.firstDue(), now);
        return;
    }
    case net::FrameType::RespFinal: {
        net::FinalResult r;
        if (!net::decodeFinal(f.payload, r)) {
            finishStream(s, true);
            return;
        }
        s.served.hyp = Hypothesis{r.words, r.score};
        s.served.finalMs = msBetween(s.endOfSpeech(), now);
        if (s.served.firstWordsMs < 0 && !r.words.empty())
            s.served.firstWordsMs = msBetween(s.firstDue(), now);
        tracer.record("finish->final", s.finishSent, now, s.id, s.span);
        tracer.record("stream", s.arrival, now, s.id, 0, s.span);
        const bool late = s.served.finalMs > kFinalLimitMs;
        if (!late) {
            ++out.completed;
            out.audioSeconds += pool[s.utt].durationSeconds();
            out.wallSeconds = secondsBetween(start, now);
        }
        finishStream(s, late);
        out.served.push_back(s.served);
        return;
    }
    default:  // RETRY_AFTER, ERROR or DEADLINE_EXCEEDED
        finishStream(s, true);
        return;
    }
}

bool
WireLoad::requestStats()
{
    Conn &c = conns.front();
    if (c.dead)
        return false;
    queue(c, net::FrameType::Stats, 0, {});
    const Clock::time_point giveUp = Clock::now() + 2s;
    while (!out.haveWireStats && !c.dead && Clock::now() < giveUp) {
        flush(c);
        pollfd p{c.sock.fd(), POLLIN, 0};
        if (::poll(&p, 1, 10) > 0)
            receive(c, 0);
    }
    return out.haveWireStats;
}

PhaseResult
WireLoad::run(std::uint64_t seed, double seconds)
{
    connect();
    // A short lead so the first arrivals are not already late.
    start = Clock::now() + 20ms;
    schedule(seed, seconds);

    // Min-heap of (next due time, stream).
    using Event = std::pair<Clock::time_point, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        due;
    for (std::size_t i = 0; i < streams.size(); ++i)
        due.push({streams[i].nextDue(), i});

    const Clock::time_point lastArrival = streams.back().arrival;
    std::size_t longest = 0;
    for (const Stream &s : streams)
        longest = std::max(longest, s.chunks);
    const Clock::time_point giveUp =
        lastArrival + kChunk * std::int64_t(longest) + 2s + 3s;

    out.statsBefore = stack.engine->stats();
    const double cpu0 = cpuSeconds(stack.engineTids);
    Clock::time_point nextThreadSample = Clock::now();

    std::vector<pollfd> pfds(conns.size());
    while (open > 0) {
        Clock::time_point now = Clock::now();
        if (now > giveUp)
            break;
        while (!due.empty() && due.top().first <= now) {
            const std::size_t idx = due.top().second;
            due.pop();
            Stream &s = streams[idx];
            if (s.done || conns[s.conn].dead)
                continue;
            fire(idx, now);
            if (s.next < s.chunks)
                due.push({s.nextDue(), idx});
        }
        for (Conn &c : conns)
            flush(c);
        if (now >= nextThreadSample) {
            out.maxThreads = std::max(out.maxThreads,
                                      unsigned(threadIds().size()));
            nextThreadSample = now + 100ms;
        }

        for (std::size_t i = 0; i < conns.size(); ++i) {
            pfds[i].fd = conns[i].dead ? -1 : conns[i].sock.fd();
            const bool pending = conns[i].outOff < conns[i].out.size();
            pfds[i].events = short(POLLIN | (pending ? POLLOUT : 0));
            pfds[i].revents = 0;
        }
        now = Clock::now();
        const Clock::duration wait =
            due.empty() ? Clock::duration(5ms)
                        : std::clamp<Clock::duration>(due.top().first - now,
                                                      Clock::duration(0),
                                                      Clock::duration(5ms));
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
        const timespec ts{time_t(ns / 1000000000), long(ns % 1000000000)};
        if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
            continue;
        for (std::size_t i = 0; i < conns.size(); ++i) {
            if (conns[i].dead || pfds[i].revents == 0)
                continue;
            if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
                receive(conns[i], unsigned(i));
            if (pfds[i].revents & POLLOUT)
                flush(conns[i]);
        }
    }
    out.engineCpuSeconds = cpuSeconds(stack.engineTids) - cpu0;
    out.phaseSeconds = secondsBetween(start, Clock::now());
    // Streams still open at the give-up time count as failed.
    for (Stream &s : streams) {
        finishStream(s, true);
        out.failed += s.failed ? 1 : 0;
    }
    out.statsAfter = stack.engine->stats();
    requestStats();
    return out;
}

} // namespace

PhaseResult
runWire(const WorkloadSpec &spec, Stack &stack,
        const std::vector<asr::frontend::AudioSignal> &pool,
        std::uint64_t seed, double seconds, Tracer &tracer)
{
    return WireLoad(spec, stack, pool, tracer).run(seed, seconds);
}

} // namespace perfbench
