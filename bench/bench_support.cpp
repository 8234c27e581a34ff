#include "bench/bench_support.h"

#include <cstdarg>
#include <cstring>

#include "exec/launch.h"
#include "memo/table.h"
#include "store/format.h"
#include "parser/parser.h"
#include "runtime/quality.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "vm/compiler.h"

namespace paraprox::bench {

AppMeasurement
measure_app(apps::Application& app, const device::DeviceModel& device,
            double toq, const std::vector<std::uint64_t>& seeds)
{
    AppMeasurement out;
    out.app = app.info().name;
    out.device = device.name;

    auto variants = app.variants(device);
    runtime::Tuner tuner(variants, app.info().metric, toq);
    out.profiles = tuner.calibrate(seeds);

    // The modeled choice, which the paper's figures report; the runtime
    // serves another when this one loses to exact in wall clock.
    const int selected = runtime::modeled_order(out.profiles).front();
    out.chosen = out.profiles[selected].label;
    out.speedup = out.profiles[selected].speedup;
    out.wall_speedup = out.profiles[selected].wall_speedup;
    out.quality = out.profiles[selected].quality;

    // One paired run on a fresh input for per-element error analysis
    // (Fig. 13).
    const std::uint64_t fresh_seed = seeds.back() + 7919;
    out.exact_output = variants[0].run(fresh_seed).output;
    out.chosen_output = variants[selected].run(fresh_seed).output;
    return out;
}

const char*
credit_card_source()
{
    // N(i) = -1/30 * ln(1 + b0/p (1 - (1+i)^30)) / ln(1 + i)
    return R"(
float f(float i) {
    float b0 = 5000.0f;
    float p = 200.0f;
    float growth = powf(1.0f + i, 30.0f);
    return -0.033333333f * logf(1.0f + b0 / p * (1.0f - growth))
         / logf(1.0f + i);
}
__kernel void apply(__global float* in, __global float* out) {
    int t = get_global_id(0);
    out[t] = f(in[t]);
}
)";
}

const char*
gompertz_source()
{
    // F(x) = (1 - e^{-b x}) e^{-eta e^{-b x}}
    return R"(
float f(float x) {
    float b = 2.5f;
    float eta = 0.7f;
    float decay = expf(-(b * x));
    return (1.0f - decay) * expf(-(eta * decay));
}
__kernel void apply(__global float* in, __global float* out) {
    int t = get_global_id(0);
    out[t] = f(in[t]);
}
)";
}

const char*
lgamma_source()
{
    return R"(
float f(float z) {
    return lgammaf(z);
}
__kernel void apply(__global float* in, __global float* out) {
    int t = get_global_id(0);
    out[t] = f(in[t]);
}
)";
}

const char*
bass_source()
{
    // S(t) = m (p+q)^2/p * e^{-(p+q)t} / (1 + q/p e^{-(p+q)t})^2
    return R"(
float f(float t) {
    float m = 1000.0f;
    float p = 0.03f;
    float q = 0.38f;
    float pq = p + q;
    float decay = expf(-(pq * t));
    float denom = 1.0f + q / p * decay;
    return m * pq * pq / p * decay / (denom * denom);
}
__kernel void apply(__global float* in, __global float* out) {
    int t = get_global_id(0);
    out[t] = f(in[t]);
}
)";
}

std::vector<CaseStudyFunction>
case_study_functions()
{
    return {
        // Daily interest rates (APR/365 for ~2%-25% APR): the balance
        // equation's logarithm is only defined while payments outpace
        // interest.
        {"Credit", credit_card_source(), 0.00005f, 0.0008f},
        {"Gompertz", gompertz_source(), 0.0f, 4.0f},
        {"lgamma", lgamma_source(), 0.1f, 10.0f},
        {"Bass", bass_source(), 0.0f, 20.0f},
    };
}

CaseStudyResult
run_case_study(const CaseStudyFunction& function, int bits,
               transforms::TableLocation location,
               transforms::LookupMode mode,
               const device::DeviceModel& device, int n)
{
    auto module = parser::parse_module(function.source);

    // Table: profile + tune on the declared input domain.
    memo::ScalarEvaluator evaluator(module, "f");
    Rng rng(0xca5eull);
    std::vector<std::vector<float>> training(256);
    for (auto& sample : training)
        sample = {rng.uniform(function.lo, function.hi)};
    auto tuning = memo::bit_tune(evaluator, training, bits);
    auto table = memo::build_table(evaluator, tuning.config);

    auto memoized = transforms::memoize_kernel(module, "apply", "f", table,
                                               location, mode);
    auto exact_prog = vm::compile_kernel(module, "apply");
    auto approx_prog = vm::compile_kernel(memoized.module,
                                          memoized.kernel_name);

    Rng inputs_rng(0x1deaull);
    exec::Buffer in = exec::Buffer::from_floats(
        inputs_rng.uniform_vector(n, function.lo, function.hi));
    exec::Buffer exact_out = exec::Buffer::zeros_f32(n);
    exec::Buffer approx_out = exec::Buffer::zeros_f32(n);
    exec::Buffer table_buf =
        exec::Buffer::from_floats(memoized.table.values);
    // 128-item groups amortize the shared-table staging loop, like real
    // CUDA blocks do.
    const auto config = exec::LaunchConfig::linear(n, 128);

    exec::ArgPack exact_args;
    exact_args.buffer("in", in).buffer("out", exact_out);
    auto exact = device::run_modeled(exact_prog, exact_args, config,
                                     device);

    exec::ArgPack approx_args;
    approx_args.buffer("in", in).buffer("out", approx_out);
    approx_args.buffer(memoized.table_buffer_param, table_buf);
    if (!memoized.shared_table_param.empty()) {
        approx_args.shared(memoized.shared_table_param,
                           static_cast<std::int64_t>(
                               memoized.table.values.size()));
    }
    auto approx = device::run_modeled(approx_prog, approx_args, config,
                                      device);

    CaseStudyResult result;
    result.quality = runtime::quality_percent(
        runtime::Metric::L1Norm, exact_out.to_floats(),
        approx_out.to_floats());
    result.speedup = approx.cycles > 0.0 ? exact.cycles / approx.cycles
                                         : 1.0;
    result.serialization =
        approx.cost.transactions > 0
            ? 100.0 * static_cast<double>(approx.cost.extra_transactions) /
                  static_cast<double>(approx.cost.transactions)
            : 0.0;
    return result;
}

std::vector<std::unique_ptr<apps::Application>>
make_scaled_apps(double scale, const std::vector<std::string>& wanted)
{
    auto all = apps::make_all_applications();
    for (auto& app : all)
        app->set_scale(scale);
    if (wanted.empty())
        return all;

    std::vector<std::unique_ptr<apps::Application>> picked;
    for (const auto& name : wanted) {
        for (auto& app : all) {
            if (app && app->info().name == name) {
                picked.push_back(std::move(app));
                break;
            }
        }
    }
    return picked;
}

namespace {

std::string
json_escape(const std::string& text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
json_number(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    return buffer;
}

}  // namespace

JsonObject&
JsonObject::raw(const std::string& key, std::string encoded)
{
    fields_.emplace_back(key, std::move(encoded));
    return *this;
}

JsonObject&
JsonObject::set(const std::string& key, const std::string& value)
{
    return raw(key, json_escape(value));
}

JsonObject&
JsonObject::set(const std::string& key, const char* value)
{
    return raw(key, json_escape(value));
}

JsonObject&
JsonObject::set(const std::string& key, double value)
{
    return raw(key, json_number(value));
}

JsonObject&
JsonObject::set(const std::string& key, std::uint64_t value)
{
    return raw(key, std::to_string(value));
}

JsonObject&
JsonObject::set(const std::string& key, int value)
{
    return raw(key, std::to_string(value));
}

JsonObject&
JsonObject::set(const std::string& key, bool value)
{
    return raw(key, value ? "true" : "false");
}

std::string
JsonObject::dump() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += json_escape(fields_[i].first) + ": " + fields_[i].second;
    }
    out += '}';
    return out;
}

BenchReport::BenchReport(std::string name, bool smoke)
    : name_(std::move(name)), smoke_(smoke)
{
}

JsonObject&
BenchReport::add_row()
{
    rows_.emplace_back();
    return rows_.back();
}

void
BenchReport::set_geomean(double value)
{
    geomean_ = value;
    has_geomean_ = true;
}

std::string
BenchReport::write() const
{
    std::string body = "{\n  \"name\": " + json_escape(name_) +
                       ",\n  \"config\": " + config_.dump();
    if (has_geomean_)
        body += ",\n  \"geomean\": " + json_number(geomean_);
    body += ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        body += i > 0 ? ",\n    " : "\n    ";
        body += rows_[i].dump();
    }
    body += rows_.empty() ? "]\n}\n" : "\n  ]\n}\n";

    const std::string path =
        "BENCH_" + name_ + (smoke_ ? ".smoke.json" : ".json");
    if (!json_wellformed(body)) {
        std::printf("note: %s body is not well-formed JSON; not written\n",
                    path.c_str());
        return "";
    }
    // Atomic temp+rename (the artifact store's discipline): a bench
    // crashing mid-write must never leave a truncated BENCH_*.json for
    // CI to archive as if valid.
    const std::vector<std::uint8_t> bytes(body.begin(), body.end());
    if (!store::write_file_atomic(path, bytes)) {
        std::printf("note: could not write %s\n", path.c_str());
        return "";
    }
    // Paranoia pass: the published file itself must parse.
    const auto published = store::read_file_bytes(path);
    if (!published ||
        !json_wellformed(
            std::string(published->begin(), published->end()))) {
        std::printf("note: %s failed post-write validation\n",
                    path.c_str());
        return "";
    }
    std::printf("wrote %s\n", path.c_str());
    return path;
}

namespace {

/// Minimal recursive-descent JSON checker.  Depth-capped so hostile
/// nesting cannot blow the stack.
struct JsonChecker {
    const char* cursor;
    const char* end;
    int depth = 0;

    static constexpr int kMaxDepth = 64;

    void skip_space()
    {
        while (cursor != end &&
               (*cursor == ' ' || *cursor == '\t' || *cursor == '\n' ||
                *cursor == '\r'))
            ++cursor;
    }

    bool literal(const char* word)
    {
        const std::size_t length = std::strlen(word);
        if (static_cast<std::size_t>(end - cursor) < length ||
            std::strncmp(cursor, word, length) != 0)
            return false;
        cursor += length;
        return true;
    }

    bool string()
    {
        if (cursor == end || *cursor != '"')
            return false;
        ++cursor;
        while (cursor != end && *cursor != '"') {
            if (*cursor == '\\') {
                ++cursor;
                if (cursor == end)
                    return false;
            }
            ++cursor;
        }
        if (cursor == end)
            return false;
        ++cursor;
        return true;
    }

    bool number()
    {
        const char* start = cursor;
        if (cursor != end && (*cursor == '-' || *cursor == '+'))
            ++cursor;
        bool digits = false;
        while (cursor != end &&
               ((*cursor >= '0' && *cursor <= '9') || *cursor == '.' ||
                *cursor == 'e' || *cursor == 'E' || *cursor == '-' ||
                *cursor == '+')) {
            if (*cursor >= '0' && *cursor <= '9')
                digits = true;
            ++cursor;
        }
        return digits && cursor != start;
    }

    bool value()
    {
        if (++depth > kMaxDepth)
            return false;
        skip_space();
        bool ok = false;
        if (cursor == end) {
            ok = false;
        } else if (*cursor == '{') {
            ok = object();
        } else if (*cursor == '[') {
            ok = array();
        } else if (*cursor == '"') {
            ok = string();
        } else if (literal("true") || literal("false") ||
                   literal("null")) {
            ok = true;
        } else {
            ok = number();
        }
        --depth;
        return ok;
    }

    bool object()
    {
        ++cursor;  // '{'
        skip_space();
        if (cursor != end && *cursor == '}') {
            ++cursor;
            return true;
        }
        for (;;) {
            skip_space();
            if (!string())
                return false;
            skip_space();
            if (cursor == end || *cursor != ':')
                return false;
            ++cursor;
            if (!value())
                return false;
            skip_space();
            if (cursor == end)
                return false;
            if (*cursor == ',') {
                ++cursor;
                continue;
            }
            if (*cursor == '}') {
                ++cursor;
                return true;
            }
            return false;
        }
    }

    bool array()
    {
        ++cursor;  // '['
        skip_space();
        if (cursor != end && *cursor == ']') {
            ++cursor;
            return true;
        }
        for (;;) {
            if (!value())
                return false;
            skip_space();
            if (cursor == end)
                return false;
            if (*cursor == ',') {
                ++cursor;
                continue;
            }
            if (*cursor == ']') {
                ++cursor;
                return true;
            }
            return false;
        }
    }
};

}  // namespace

bool
json_wellformed(const std::string& text)
{
    JsonChecker checker{text.data(), text.data() + text.size()};
    if (!checker.value())
        return false;
    checker.skip_space();
    return checker.cursor == checker.end;
}

std::size_t
default_thread_count()
{
    return ThreadPool::global().size();
}

void
print_header(const std::string& title)
{
    std::printf("\n================================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================================\n");
}

void
print_row(const std::vector<std::string>& cells, int width)
{
    for (const auto& cell : cells)
        std::printf("%-*s", width, cell.c_str());
    std::printf("\n");
}

std::string
fmt(double value, int precision)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
    return buffer;
}

}  // namespace paraprox::bench
