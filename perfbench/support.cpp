#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>

namespace perfbench {

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
ms_since(Clock::time_point start)
{
    return seconds_since(start) * 1e3;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double value : values)
        sum += value;
    return sum / static_cast<double>(values.size());
}

double
interquartile_mean(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const std::size_t drop = n >= 3 ? std::max<std::size_t>(1, n / 4) : 0;
    double sum = 0.0;
    for (std::size_t i = drop; i < n - drop; ++i)
        sum += values[i];
    return sum / static_cast<double>(n - 2 * drop);
}

double
windowed_percentile(std::vector<Timed> samples, double q,
                    std::size_t min_window, std::size_t max_windows)
{
    std::sort(samples.begin(), samples.end(),
              [](const Timed& a, const Timed& b) { return a.at_ns < b.at_ns; });
    const std::size_t windows = std::clamp<std::size_t>(
        samples.size() / std::max<std::size_t>(1, min_window), 1,
        max_windows);
    std::vector<double> per_window;
    for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t begin = samples.size() * w / windows;
        const std::size_t end = samples.size() * (w + 1) / windows;
        std::vector<double> values;
        for (std::size_t i = begin; i < end; ++i)
            values.push_back(samples[i].value);
        per_window.push_back(percentile(std::move(values), q));
    }
    return interquartile_mean(std::move(per_window));
}

double
windowed_rate(const std::vector<Timed>& samples, std::int64_t start_ns,
              double seconds, int windows)
{
    const double window_ns = seconds * 1e9 / windows;
    std::vector<std::vector<std::int64_t>> per_window(
        static_cast<std::size_t>(windows));
    for (const Timed& sample : samples) {
        const double offset = static_cast<double>(sample.at_ns - start_ns);
        if (offset < 0)
            continue;
        const auto index = static_cast<std::size_t>(offset / window_ns);
        if (index < per_window.size())
            per_window[index].push_back(sample.at_ns);
    }
    // Per window, completions after the first over the span they cover:
    // a continuous rate, not a count quantized to the window length.
    std::vector<double> rates;
    for (auto& at : per_window) {
        if (at.size() < 2) {
            rates.push_back(0.0);
            continue;
        }
        const auto [first, last] = std::minmax_element(at.begin(), at.end());
        rates.push_back(*last > *first ? static_cast<double>(at.size() - 1) *
                                             1e9 /
                                             static_cast<double>(*last - *first)
                                       : 0.0);
    }
    return interquartile_mean(std::move(rates));
}

std::vector<double>
poisson_schedule(std::uint64_t seed, double rate_hz, double seconds)
{
    Rng rng(seed ^ 0x5ca1ab1eull);
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate_hz;
        if (t >= seconds)
            return due;
        due.push_back(t);
    }
}

bool
valid_metric_name(const std::string& name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

double
peak_rss_mb(bool children)
{
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    long kib = self.ru_maxrss;
    if (children) {
        rusage kids{};
        getrusage(RUSAGE_CHILDREN, &kids);
        kib = std::max(kib, kids.ru_maxrss);
    }
    return static_cast<double>(kib) / 1024.0;
}

RequestStream::RequestStream(std::uint64_t seed, StreamSpec spec)
    : spec_(std::move(spec))
{
    Rng rng(seed ^ 0x1badb002ull);
    for (std::size_t f = 0; f < spec_.slots.size(); ++f) {
        std::vector<std::uint64_t> pool;
        std::set<std::uint64_t> seen;
        while (pool.size() < spec_.inputs_per_family) {
            const std::uint64_t input = 1000 + rng.below(1u << 30);
            if (seen.insert(input).second)
                pool.push_back(input);
        }
        inputs_.push_back(std::move(pool));
    }
}

Draw
RequestStream::draw(StreamCursor& cursor) const
{
    if (cursor.block.empty()) {
        for (std::size_t f = 0; f < spec_.slots.size(); ++f)
            cursor.block.insert(cursor.block.end(),
                                static_cast<std::size_t>(spec_.slots[f]), f);
        for (std::size_t i = cursor.block.size(); i > 1; --i)
            std::swap(cursor.block[i - 1],
                      cursor.block[cursor.rng.below(i)]);
    }
    Draw out;
    out.family = cursor.block.back();
    cursor.block.pop_back();
    const auto& pool = inputs_[out.family];
    out.input_seed = pool[cursor.rng.below(pool.size())];
    return out;
}

// ---- Spans ------------------------------------------------------------

SpanRecorder::SpanRecorder(bool armed) : armed_(armed) {}

std::int64_t
SpanRecorder::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::uint64_t
SpanRecorder::add(std::uint64_t parent, std::uint64_t request,
                  const std::string& layer, std::int64_t start_ns,
                  std::int64_t end_ns, int tid)
{
    if (!armed_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = next_id_++;
    spans_.push_back({id, parent, request, layer, start_ns, end_ns, tid});
    return id;
}

std::map<std::string, double>
SpanRecorder::self_seconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::uint64_t, double> child_ns;
    for (const auto& span : spans_) {
        if (span.parent != 0)
            child_ns[span.parent] +=
                static_cast<double>(span.end_ns - span.start_ns);
    }
    std::map<std::string, double> self;
    for (const auto& span : spans_) {
        double own = static_cast<double>(span.end_ns - span.start_ns);
        if (const auto it = child_ns.find(span.id); it != child_ns.end())
            own -= it->second;
        self[span.layer] += own * 1e-9;
    }
    return self;
}

bool
SpanRecorder::write_chrome(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& span = spans_[i];
        char line[512];
        std::snprintf(line, sizeof line,
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                      "\"args\": {\"id\": %llu, \"parent\": %llu, "
                      "\"request\": %llu}}%s\n",
                      span.layer.c_str(),
                      span.layer.substr(0, span.layer.find('.')).c_str(),
                      static_cast<double>(span.start_ns) * 1e-3,
                      static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                      span.tid, static_cast<unsigned long long>(span.id),
                      static_cast<unsigned long long>(span.parent),
                      static_cast<unsigned long long>(span.request),
                      i + 1 < spans_.size() ? "," : "");
        out << line;
    }
    out << "], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(out);
}

// ---- Output gate ------------------------------------------------------

int
find_variant(const std::vector<runtime::Variant>& variants,
             const std::string& label)
{
    for (std::size_t i = 0; i < variants.size(); ++i) {
        if (variants[i].label == label)
            return static_cast<int>(i);
    }
    return -1;
}

bool
OutputGate::Key::operator<(const Key& other) const
{
    if (family != other.family)
        return family < other.family;
    if (input != other.input)
        return input < other.input;
    return label < other.label;
}

OutputGate::OutputGate(std::vector<GateFamily> families)
    : families_(std::move(families))
{
}

namespace {

bool
same_bits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

runtime::VariantRun
run_fast(const runtime::Variant& variant, std::uint64_t input)
{
    return variant.run_fast ? variant.run_fast(input) : variant.run(input);
}

}  // namespace

void
OutputGate::record(std::size_t family, const std::string& label,
                   std::uint64_t input, const std::vector<float>& output)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = kept_.try_emplace(Key{family, label, input});
    if (inserted)
        it->second.output = output;
    else if (!same_bits(it->second.output, output))
        ++it->second.mismatches;
    ++it->second.count;
}

GateResult
OutputGate::verify()
{
    std::lock_guard<std::mutex> lock(mutex_);
    GateResult result;
    std::map<std::pair<std::size_t, std::uint64_t>, std::vector<float>> exact;
    for (auto& [key, kept] : kept_) {
        const GateFamily& family = families_[key.family];
        result.checked += kept.count;
        result.mismatches += kept.mismatches;
        const int index = find_variant(family.variants, key.label);
        if (index < 0) {
            result.mismatches += kept.count - kept.mismatches;
            continue;
        }
        const auto start = Clock::now();
        const runtime::VariantRun replay =
            run_fast(family.variants[static_cast<std::size_t>(index)],
                     key.input);
        kept.replay.exec_us = seconds_since(start) * 1e6;
        kept.replay.instructions = static_cast<double>(replay.instructions);
        const std::uint64_t matching = kept.count - kept.mismatches;
        if (replay.trapped || !same_bits(replay.output, kept.output)) {
            result.mismatches += matching;
            continue;
        }
        auto [exact_it, fresh] =
            exact.try_emplace({key.family, key.input});
        if (fresh) {
            exact_it->second =
                index == 0 ? replay.output
                           : run_fast(family.variants[0], key.input).output;
        }
        const double quality = runtime::quality_percent(
            family.metric, exact_it->second, kept.output);
        result.quality_sum += quality * static_cast<double>(matching);
        if (quality >= family.toq)
            result.toq_met += matching;
    }
    return result;
}

ReplayInfo
OutputGate::replay_info(std::size_t family, const std::string& label,
                        std::uint64_t input) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = kept_.find(Key{family, label, input});
    return it == kept_.end() ? ReplayInfo{} : it->second.replay;
}

// ---- Phase output -----------------------------------------------------

namespace {

std::string
json_string(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
            out += escaped;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

}  // namespace

void
print_result(const std::string& phase, const PhaseResult& result)
{
    std::string line = "{\"phase\": " + json_string(phase) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : result.metrics) {
        char number[64];
        std::snprintf(number, sizeof number, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        line += (first ? "" : ", ") + json_string(name) + ": " + number;
        first = false;
    }
    line += "}, \"fingerprint\": {";
    first = true;
    for (const auto& [name, value] : result.fingerprint) {
        line += (first ? "" : ", ") + json_string(name) + ": " +
                json_string(value);
        first = false;
    }
    line += "}, \"attempted\": " + std::to_string(result.attempted) +
            ", \"failed\": " + std::to_string(result.failed) +
            ", \"mismatches\": " + std::to_string(result.mismatches) + "}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

void
put_p50_p99(PhaseResult& result, const std::string& name,
            const std::vector<double>& values)
{
    result.metrics[name + "_p50"] = percentile(values, 0.50);
    result.metrics[name + "_p99"] = percentile(values, 0.99);
}

int
self_test()
{
    int failures = 0;
    const auto check = [&](bool ok, const char* what) {
        if (!ok) {
            std::fprintf(stderr, "selftest FAILED: %s\n", what);
            ++failures;
        }
    };

    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    check(percentile(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
    check(percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
    check(percentile(hundred, 1.0) == 100.0, "p100 is the max");
    check(percentile(hundred, 0.0) == 1.0, "p0 is the min");
    check(percentile({}, 0.5) == 0.0, "empty percentile is 0");
    check(percentile({7.0}, 0.99) == 7.0, "single-sample percentile");

    check(interquartile_mean({9.0, 1.0, 5.0}) == 5.0,
          "three values: the median");
    check(interquartile_mean({100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}) ==
              4.5,
          "eight values: the middle four");
    check(interquartile_mean({2.0, 4.0}) == 3.0, "two values: their mean");

    std::vector<Timed> timed;
    for (int i = 0; i < 3000; ++i)
        timed.push_back({3000 - i, i < 1000 && i % 100 == 0 ? 1e6 : 1.0});
    check(windowed_percentile(timed, 0.99) == 1.0,
          "one bursty window does not set the windowed p99");
    check(windowed_percentile({{1, 2.0}, {2, 4.0}}, 0.99) == 4.0,
          "short runs use one window");

    std::vector<Timed> completions;
    for (int i = 0; i < 1000; ++i)
        completions.push_back({i < 100 ? 1 : i * 1'000'000, 1.0});
    const double rate = windowed_rate(completions, 0, 1.0);
    check(std::abs(rate - 1000.0) < 1e-6,
          "a burst in one window does not set the windowed rate");

    const auto a = poisson_schedule(42, 500.0, 2.0);
    const auto b = poisson_schedule(42, 500.0, 2.0);
    const auto c = poisson_schedule(43, 500.0, 2.0);
    check(a == b, "equal seeds give identical schedules");
    check(a != c, "different seeds give different schedules");
    check(std::is_sorted(a.begin(), a.end()), "schedule is ascending");
    check(a.size() > 850 && a.size() < 1150, "schedule rate near 500/s");

    check(valid_metric_name("latency_p50_ms"), "plain name is valid");
    check(valid_metric_name("vm.exec_us-p99"), "dots and dashes are valid");
    check(!valid_metric_name(""), "empty name is invalid");
    check(!valid_metric_name("_lead"), "leading underscore is invalid");
    check(!valid_metric_name("has space"), "space is invalid");
    check(!valid_metric_name("slash/name"), "slash is invalid");
    check(!valid_metric_name(std::string(65, 'a')), "65 chars is invalid");

    const RequestStream s1(9, {{7, 1, 1, 1}, 8});
    const RequestStream s2(9, {{7, 1, 1, 1}, 8});
    StreamCursor r1(5);
    StreamCursor r2(5);
    bool same = true;
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 2000; ++i) {
        const Draw d1 = s1.draw(r1);
        const Draw d2 = s2.draw(r2);
        same = same && d1.family == d2.family &&
               d1.input_seed == d2.input_seed;
        ++counts[d1.family];
    }
    check(same, "equal seeds give identical request streams");
    check(counts[0] == 1400 && counts[1] == 200, "exact 70/10/10/10 mix");

    if (failures == 0)
        std::printf("selftest ok\n");
    return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
