#include "harness.hh"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/cpuinfo.hh"

namespace perfbench {

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * double(samples.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(samples.size(), std::size_t(rank)) - 1;
    return samples[idx];
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    const std::size_t rank =
        std::max<std::size_t>(1, std::size_t(std::ceil(q * double(n))));
    return n > rank ? n - rank : 0;
}

// -- Report ------------------------------------------------------------------

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = {value, unit};
}

void
Report::percentileMetric(const std::string &name,
                         const std::vector<double> &samples, double q,
                         const std::string &unit, bool may_be_idle)
{
    sampleCount(name, samples.size());
    metric(name, percentile(samples, q), unit);
    if (samples.empty() && may_be_idle)
        return;
    const std::size_t beyond = samplesBeyond(samples.size(), q);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: only %zu of %zu samples lie beyond the "
                  "percentile (need %zu)",
                  name.c_str(), beyond, samples.size(), kMinSamplesBeyond);
    check(beyond >= kMinSamplesBeyond, buf);
}

void
Report::sampleCount(const std::string &name, std::size_t n)
{
    samples_[name] = n;
}

void
Report::check(bool ok, const std::string &message)
{
    if (!ok)
        failures.push_back(message);
}

void
Report::setAccounting(std::uint64_t attempted_, std::uint64_t completed,
                      std::uint64_t failed_)
{
    attempted = attempted_;
    failed = failed_;
    check(attempted_ == completed + failed_,
          "accounting: attempted " + std::to_string(attempted_) +
              " != completed " + std::to_string(completed) +
              " + failed " + std::to_string(failed_));
    check(attempted_ >= 1, "accounting: nothing was attempted");
}

double
Report::value(const std::string &name) const
{
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.first;
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::print(const std::vector<std::string> &keep) const
{
    std::string line = "samples:";
    for (const auto &[name, n] : samples_)
        line += " " + name + "=" + std::to_string(n);
    std::printf("%s\n", line.c_str());
    for (const std::string &f : failures) {
        std::printf("HARNESS CHECK FAILED: %s\n", f.c_str());
        std::fprintf(stderr, "HARNESS CHECK FAILED: %s\n", f.c_str());
    }
    if (!outputsOk)
        std::printf("CORRECTNESS CHECK FAILED: results differ from the "
                    "oracle decode\n");

    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : keep) {
        const auto it = metrics_.find(name);
        const double v = it == metrics_.end() ? 0.0 : it->second.first;
        const std::string unit =
            it == metrics_.end() ? "" : it->second.second;
        out += first ? "" : ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " + jsonNumber(v) +
               ", \"unit\": " + jsonString(unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// -- Tracer ------------------------------------------------------------------

std::uint64_t
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, std::uint64_t stream,
               std::uint64_t parent, std::uint64_t id)
{
    if (!on)
        return 0;
    if (id == 0)
        id = nextId++;
    spans_.push_back(Span{name, start, end, id, parent, stream});
    return id;
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(msBetween(s.start, s.end));
    return out;
}

bool
Tracer::writeChromeTrace(
    const std::string &path,
    const std::map<std::string, std::string> &metadata) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"displayTimeUnit\": \"ms\", \"otherData\": {";
    bool first = true;
    for (const auto &[k, v] : metadata) {
        f << (first ? "" : ", ") << jsonString(k) << ": " << jsonString(v);
        first = false;
    }
    f << "},\n\"traceEvents\": [\n";
    first = true;
    for (const Span &s : spans_) {
        const double ts =
            std::chrono::duration<double, std::micro>(s.start - origin)
                .count();
        const double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start)
                .count();
        f << (first ? "" : ",\n") << "{\"name\": " << jsonString(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.stream
          << ", \"ts\": " << jsonNumber(ts)
          << ", \"dur\": " << jsonNumber(dur)
          << ", \"args\": {\"id\": " << s.id
          << ", \"parent\": " << s.parent << "}}";
        first = false;
    }
    f << "\n]}\n";
    return bool(f);
}

// -- /proc readers -----------------------------------------------------------

std::vector<int>
threadIds()
{
    std::vector<int> tids;
    DIR *dir = ::opendir("/proc/self/task");
    if (!dir)
        return tids;
    while (const dirent *e = ::readdir(dir)) {
        if (e->d_name[0] >= '0' && e->d_name[0] <= '9')
            tids.push_back(std::atoi(e->d_name));
    }
    ::closedir(dir);
    std::sort(tids.begin(), tids.end());
    return tids;
}

double
threadCpuSeconds(int tid)
{
    // schedstat's first field: nanoseconds the thread ran on a CPU.
    std::ifstream sched("/proc/self/task/" + std::to_string(tid) +
                        "/schedstat");
    unsigned long long ns = 0;
    return sched >> ns ? double(ns) * 1e-9 : 0.0;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string key;
    while (f >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            f >> kb;
            return kb / 1024.0;
        }
        f.ignore(1 << 16, '\n');
    }
    return 0.0;
}

unsigned
availableCpus()
{
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(CPU_COUNT(&set));
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? unsigned(n) : 1u;
}

// -- Fingerprint -------------------------------------------------------------

std::string
buildType()
{
    return PERFBENCH_BUILD_TYPE;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

namespace {

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** "L1d 32K, L1i 32K, L2 1024K, L3 32768K" from sysfs. */
std::string
cacheSizes()
{
    std::string out;
    for (int i = 0; i < 8; ++i) {
        const std::string base =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        std::ifstream level(base + "/level"), type(base + "/type"),
            size(base + "/size");
        std::string l, t, s;
        if (!(level >> l) || !(type >> t) || !(size >> s))
            break;
        const std::string kind =
            t == "Data" ? "d" : t == "Instruction" ? "i" : "";
        out += (out.empty() ? "" : ", ") + ("L" + l + kind + " " + s);
    }
    return out.empty() ? "unknown" : out;
}

} // namespace

std::string
fingerprintJson()
{
    const char *source = std::getenv("PERFBENCH_SOURCE_ID");
    std::string out = "{";
    out += "\"cpu\": " + jsonString(cpuModel());
    out += ", \"simd\": " + jsonString(std::string(asr::cpu::simdLevel()));
    out += ", \"caches\": " + jsonString(cacheSizes());
    out += ", \"cores\": " + std::to_string(availableCpus());
    out += ", \"source\": " + jsonString(source ? source : "unknown");
    out += ", \"build_type\": " + jsonString(buildType());
    out += ", \"cxx_flags\": " + jsonString(PERFBENCH_CXX_FLAGS);
    out += ", \"compiler\": " + jsonString(__VERSION__);
    return out + "}";
}

} // namespace perfbench
