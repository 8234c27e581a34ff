/// @file
/// Family registration shared by every workload, and the two in-process
/// workloads: kernel_mix (closed loop) and small_open (open loop).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>

#include "apps/pipelines.h"
#include "ir/printer.h"
#include "runtime/data_tier.h"
#include "store/artifact_store.h"
#include "vm/program_cache.h"
#include "workloads.h"

namespace perfbench {

namespace apps = paraprox::apps;
namespace device = paraprox::device;
namespace serve = paraprox::serve;
namespace store = paraprox::store;
namespace vm = paraprox::vm;

Clock::time_point g_process_start = Clock::now();

WorkloadSpec
workload_spec(const std::string& workload)
{
    using K = FamilyKind;
    WorkloadSpec spec;
    if (workload == "kernel_mix") {
        // Stencil, reduction and memo-table map kernels, the image
        // pipeline and one precision family, sized so VM execution is
        // most of each request.  The edge pipeline is registered at TOQ
        // 70: it serves the same config as at 90, whose quality on rare
        // near-empty scenes falls to 80 (1 input in 8000), and a pool
        // holding such an input would make shadow audits quarantine it
        // on some seeds only.
        spec.families = {
            {"mean_filter", K::Kernel, "Mean Filter", 1.0, 90.0, 1},
            {"gaussian_filter", K::Kernel, "Gaussian Filter", 1.0, 90.0, 1},
            {"naive_bayes", K::Kernel, "Naive Bayes", 1.0, 90.0, 1},
            {"image_denoising", K::Kernel, "Image Denoising", 0.5, 90.0, 1},
            {"blackscholes", K::Kernel, "BlackScholes", 0.5, 90.0, 1},
            {"edges", K::Pipeline, "", 1.0, 70.0, 1},
            {"hotspot_data", K::Data, "HotSpot", 1.0, 90.0, 1},
        };
        spec.training_seeds = {101, 202};
    } else if (workload == "small_open") {
        // ~1k-element requests with a 70/10/10/10 popularity skew.
        // Gamma Correction is tuned at TOQ 92: at 90 its selected table
        // misses the TOQ on about a fifth of held-out inputs.
        spec.families = {
            {"gamma_correction", K::Kernel, "Gamma Correction", 1.0 / 64,
             92.0, 7},
            {"boxmuller", K::Kernel, "BoxMuller", 1.0 / 128, 90.0, 1},
            {"quasirandom", K::Kernel, "Quasirandom Generator", 1.0 / 128,
             90.0, 1},
            {"hotspot", K::Kernel, "HotSpot", 0.25, 90.0, 1},
        };
        // Tiny inputs make each calibration run cheap; a wider training
        // set keeps the cold start at hundreds of milliseconds.
        for (std::uint64_t s = 1; s <= 24; ++s)
            spec.training_seeds.push_back(100 + s * 101);
    } else if (workload == "fleet_drift") {
        spec.families = {
            {"mean_filter", K::Kernel, "Mean Filter", 0.5, 90.0, 1},
            {"gaussian_filter", K::Kernel, "Gaussian Filter", 0.5, 90.0, 1},
            {"hotspot", K::Kernel, "HotSpot", 0.5, 90.0, 1},
        };
        // Enough training inputs that a replica's cold start is mostly
        // calibration work rather than process start-up.
        for (std::uint64_t s = 1; s <= 24; ++s)
            spec.training_seeds.push_back(100 + s * 101);
    } else {
        throw std::invalid_argument("unknown workload `" + workload + "`");
    }
    return spec;
}

namespace {

using Factory = std::unique_ptr<apps::Application> (*)();

Factory
factory_for(const std::string& app)
{
    static const std::map<std::string, Factory> table = {
        {"BlackScholes", apps::make_blackscholes},
        {"Quasirandom Generator", apps::make_quasirandom},
        {"Gamma Correction", apps::make_gamma_correction},
        {"BoxMuller", apps::make_boxmuller},
        {"HotSpot", apps::make_hotspot},
        {"Gaussian Filter", apps::make_gaussian_filter},
        {"Mean Filter", apps::make_mean_filter},
        {"Image Denoising", apps::make_image_denoising},
        {"Naive Bayes", apps::make_naive_bayes},
    };
    const auto it = table.find(app);
    if (it == table.end())
        throw std::invalid_argument("no factory for `" + app + "`");
    return it->second;
}

const device::DeviceModel&
bench_device()
{
    static const device::DeviceModel model = device::DeviceModel::gtx560();
    return model;
}

constexpr runtime::Metric kPipelineMetric = runtime::Metric::L1Norm;

}  // namespace

std::unique_ptr<apps::Application>
make_app(const FamilySpec& spec)
{
    auto app = factory_for(spec.app)();
    app->set_scale(spec.scale);
    return app;
}

store::StoreKey
warm_key(const FamilySpec& spec, const apps::Application& app)
{
    store::StoreKey key;
    key.module_fingerprint = paraprox::ir::fingerprint(app.module());
    key.kernel = spec.name;
    key.device = bench_device().name;
    key.toq = spec.toq;
    key.metric = runtime::to_string(app.info().metric);
    key.detail = "perfbench scale=" + std::to_string(spec.scale);
    return key;
}

std::vector<Family>
register_families(serve::ApproxService& service, const WorkloadSpec& spec,
                  RegisterTimes& times)
{
    std::vector<Family> families;
    families.reserve(spec.families.size());
    for (const FamilySpec& family_spec : spec.families) {
        Family family;
        family.spec = family_spec;
        auto start = Clock::now();
        switch (family_spec.kind) {
            case FamilyKind::Kernel: {
                family.app = make_app(family_spec);
                family.metric = family.app->info().metric;
                auto variants = family.app->variants(bench_device());
                family.replay = variants;
                times.apps_ms += ms_since(start);
                start = Clock::now();
                service.register_kernel(family_spec.name, std::move(variants),
                                        family.metric, family_spec.toq,
                                        spec.training_seeds,
                                        warm_key(family_spec, *family.app));
                times.kernel_ms += ms_since(start);
                break;
            }
            case FamilyKind::Pipeline: {
                apps::ImagePipelineOptions options;
                options.scale = family_spec.scale;
                options.toq = family_spec.toq;
                auto built = apps::make_image_pipeline(options);
                family.pipeline = std::make_unique<runtime::PipelineSession>(
                    std::move(built.pipeline));
                family.metric = kPipelineMetric;
                times.apps_ms += ms_since(start);
                start = Clock::now();
                service.register_pipeline(family_spec.name, *family.pipeline,
                                          family.metric, family_spec.toq,
                                          spec.training_seeds);
                times.pipeline_ms += ms_since(start);
                break;
            }
            case FamilyKind::Data: {
                family.app = make_app(family_spec);
                family.metric = family.app->info().metric;
                family.setup = family.app->setup(bench_device());
                if (!family.setup)
                    throw std::runtime_error(family_spec.app +
                                             " has no data tier");
                times.apps_ms += ms_since(start);
                start = Clock::now();
                service.register_data_kernel(
                    family_spec.name, *family.setup->session,
                    family.setup->plan, family.metric, family_spec.toq,
                    spec.training_seeds);
                times.data_kernel_ms += ms_since(start);
                break;
            }
        }
        families.push_back(std::move(family));
    }
    return families;
}

namespace {

/// Replay closures for pipeline and precision families are rebuilt from
/// the plans the service persisted, so labels line up with what it
/// serves.  Done outside every timed region.
void
build_replay(std::vector<Family>& families)
{
    const auto artifacts = store::ArtifactStore::global();
    for (Family& family : families) {
        if (family.spec.kind == FamilyKind::Pipeline) {
            const auto stored = artifacts->load_pipeline_calibration(
                family.pipeline->calibration_key(family.metric,
                                                 family.spec.toq));
            const auto configs =
                stored ? family.pipeline->configs_for(stored->configs)
                       : std::nullopt;
            if (!configs)
                throw std::runtime_error("no stored pipeline plan");
            family.replay = family.pipeline->variants_from(*configs);
        } else if (family.spec.kind == FamilyKind::Data) {
            const auto stored = artifacts->load_precision_calibration(
                runtime::data_calibration_key(*family.setup->session,
                                              family.metric,
                                              family.spec.toq));
            if (!stored)
                throw std::runtime_error("no stored precision plans");
            family.replay = runtime::rebuild_data_tier(
                                *family.setup->session, family.setup->plan,
                                stored->plans)
                                .variants;
        }
    }
}

serve::ServiceConfig
service_config()
{
    serve::ServiceConfig config;
    config.num_workers = 2;
    return config;
}

std::vector<GateFamily>
gate_families(const std::vector<Family>& families)
{
    std::vector<GateFamily> out;
    for (const Family& family : families)
        out.push_back({family.spec.name, family.metric, family.spec.toq,
                       family.replay});
    return out;
}

StreamSpec
stream_spec(const WorkloadSpec& spec)
{
    StreamSpec stream;
    for (const FamilySpec& family : spec.families)
        stream.slots.push_back(family.slots);
    stream.inputs_per_family = spec.inputs_per_family;
    return stream;
}

void
put_fingerprint(PhaseResult& result, const serve::ApproxService& service,
                const std::vector<Family>& families)
{
    const serve::MetricsSnapshot metrics = service.snapshot().metrics;
    for (const Family& family : families)
        result.fingerprint["selected." + family.spec.name] =
            service.kernel_snapshot(family.spec.name).selected;
    result.fingerprint["backoffs"] = std::to_string(metrics.backoffs);
    result.fingerprint["quarantines"] = std::to_string(metrics.quarantines);
    result.fingerprint["recalibrations"] =
        std::to_string(metrics.recalibrations);
    result.fingerprint["degrade_steps"] =
        std::to_string(metrics.degrade_steps);
    result.fingerprint["trap_fallbacks"] =
        std::to_string(metrics.trap_fallbacks);
}

void
configure_store(const Options& options)
{
    if (options.store.empty())
        throw std::invalid_argument("--store is required");
    store::ArtifactStore::configure_global(options.store);
}

// ---- setup / restart ------------------------------------------------

bool
has_kind(const WorkloadSpec& spec, FamilyKind kind)
{
    return std::any_of(spec.families.begin(), spec.families.end(),
                       [&](const FamilySpec& family) {
                           return family.kind == kind;
                       });
}

int
run_setup(const Options& options, const WorkloadSpec& spec)
{
    configure_store(options);
    const auto cache_before = vm::ProgramCache::global().stats();
    serve::ApproxService service(service_config());
    RegisterTimes times;
    auto families = register_families(service, spec, times);
    const double setup_s = seconds_since(g_process_start);
    const auto cache_after = vm::ProgramCache::global().stats();
    const auto store_stats = store::ArtifactStore::global()->stats();

    PhaseResult result;
    result.metrics["setup_s"] = setup_s;
    result.metrics["apps.variants_ms"] = times.apps_ms;
    result.metrics["runtime.register_kernel_ms"] = times.kernel_ms;
    if (has_kind(spec, FamilyKind::Pipeline))
        result.metrics["runtime.register_pipeline_ms"] = times.pipeline_ms;
    if (has_kind(spec, FamilyKind::Data))
        result.metrics["runtime.register_data_kernel_ms"] = times.data_kernel_ms;
    result.metrics["vm.cache_hits"] =
        static_cast<double>(cache_after.hits - cache_before.hits);
    result.metrics["vm.cache_misses"] =
        static_cast<double>(cache_after.misses - cache_before.misses);
    result.metrics["store.writes"] = static_cast<double>(store_stats.writes);
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    put_fingerprint(result, service, families);
    service.stop();
    print_result("setup", result);
    return 0;
}

int
run_restart(const Options& options, const WorkloadSpec& spec)
{
    configure_store(options);
    const auto cache_before = vm::ProgramCache::global().stats();
    serve::ApproxService service(service_config());
    RegisterTimes times;
    auto families = register_families(service, spec, times);
    const RequestStream stream(options.seed, stream_spec(spec));
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < families.size(); ++i) {
        auto ticket = service.submit(families[i].spec.name,
                                     stream.inputs(i).front());
        if (!ticket.accepted ||
            ticket.response.get().status != serve::ServeStatus::Ok)
            ++failed;
    }
    const double restart_s = seconds_since(g_process_start);
    const auto cache_after = vm::ProgramCache::global().stats();
    const auto store_stats = store::ArtifactStore::global()->stats();
    const auto metrics = service.metrics().snapshot();

    PhaseResult result;
    result.attempted = families.size();
    result.failed = failed;
    result.metrics["restart_s"] = restart_s;
    result.metrics["store.restore_ms"] = times.total_ms();
    result.metrics["store.hits"] = static_cast<double>(store_stats.hits);
    result.metrics["store.misses"] = static_cast<double>(store_stats.misses);
    result.metrics["vm.cache_disk_hits"] =
        static_cast<double>(cache_after.disk_hits - cache_before.disk_hits);
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    const std::uint64_t warm = metrics.warm_registrations +
                               metrics.warm_pipelines +
                               metrics.warm_data_tiers;
    result.fingerprint["warm_families"] = std::to_string(warm);
    if (warm != families.size())
        ++result.failed;  // A restart that re-calibrated is not warm.
    service.stop();
    print_result("restart", result);
    return 0;
}

// ---- serve ----------------------------------------------------------

/// One request as the client saw it; times are recorder-epoch ns.
struct Sample {
    std::size_t family = 0;
    std::uint64_t input = 0;
    std::uint64_t request = 0;
    std::string label;
    std::int64_t begin_ns = 0;  ///< Root span start: iteration or due time.
    std::int64_t due_ns = 0;    ///< Open loop: when it was due.
    std::int64_t submit_ns = 0;
    std::int64_t submitted_ns = 0;
    std::int64_t done_ns = 0;
    std::uint64_t wait_span = 0;
    int tid = 0;
    bool ok = false;
    bool shadowed = false;
    bool degraded = false;
};

struct LoadContext {
    serve::ApproxService& service;
    const std::vector<Family>& families;
    const RequestStream& stream;
    OutputGate* gate = nullptr;  ///< Null during warm-up.
    SpanRecorder& recorder;
    std::atomic<std::uint64_t>& next_request;
};

/// Resolve a submitted request, feed the gate and record its spans.
void
finish(LoadContext& ctx, Sample& sample, std::future<serve::Response> future)
{
    serve::Response response = future.get();
    sample.done_ns = ctx.recorder.now_ns();
    sample.ok = response.status == serve::ServeStatus::Ok;
    sample.shadowed = response.shadowed;
    sample.degraded = response.degraded;
    sample.label = response.served_by;
    if (sample.ok && ctx.gate != nullptr)
        ctx.gate->record(sample.family, sample.label, sample.input,
                         response.run.output);
}

/// Record the request's root span, from @p sample.begin_ns to now, and
/// the layer calls measured inside it.  What the root holds beyond them
/// (drawing the request, feeding the gate, a late pacer) is left to the
/// unattributed residual.
void
record_spans(LoadContext& ctx, Sample& sample)
{
    if (!ctx.recorder.armed())
        return;
    const std::uint64_t root =
        ctx.recorder.add(0, sample.request, "request", sample.begin_ns,
                         ctx.recorder.now_ns(), sample.tid);
    ctx.recorder.add(root, sample.request, "serve.submit", sample.submit_ns,
                     sample.submitted_ns, sample.tid);
    sample.wait_span =
        ctx.recorder.add(root, sample.request, "serve.wait",
                         sample.submitted_ns, sample.done_ns, sample.tid);
}

constexpr int kClients = 2;

/// Closed loop: kClients threads each send their next request when the
/// previous one resolved.  Returns the samples and the elapsed seconds.
std::vector<Sample>
closed_loop(LoadContext& ctx, std::uint64_t seed, double seconds,
            double& elapsed)
{
    std::vector<std::vector<Sample>> per_client(kClients);
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            StreamCursor cursor(seed * 7919 + static_cast<std::uint64_t>(c) + 1);
            auto& samples = per_client[static_cast<std::size_t>(c)];
            while (Clock::now() < stop) {
                Sample sample;
                sample.begin_ns = ctx.recorder.now_ns();
                const Draw draw = ctx.stream.draw(cursor);
                sample.family = draw.family;
                sample.input = draw.input_seed;
                sample.tid = c + 1;
                sample.request = ctx.next_request.fetch_add(1) + 1;
                sample.submit_ns = ctx.recorder.now_ns();
                auto ticket = ctx.service.submit(
                    ctx.families[draw.family].spec.name, draw.input_seed);
                sample.submitted_ns = ctx.recorder.now_ns();
                if (ticket.accepted) {
                    finish(ctx, sample, std::move(ticket.response));
                } else {
                    sample.done_ns = sample.submitted_ns;
                }
                record_spans(ctx, sample);
                samples.push_back(std::move(sample));
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    elapsed = seconds_since(start);
    std::vector<Sample> all;
    for (auto& samples : per_client)
        all.insert(all.end(), std::make_move_iterator(samples.begin()),
                   std::make_move_iterator(samples.end()));
    return all;
}

constexpr double kOpenRateHz = 1000.0;
constexpr auto kOpenBudget = std::chrono::milliseconds(100);

/// Open loop: one thread submits on a seeded Poisson schedule and, between
/// submissions, polls the outstanding futures.  It spins (yielding) rather
/// than sleeping: waking a sleeping thread on an idle virtual CPU can take
/// a millisecond, which would charge the generator's own lateness to the
/// service.  Latency runs from each request's due time to when its
/// response is seen ready.
std::vector<Sample>
open_loop(LoadContext& ctx, std::uint64_t seed, double seconds,
          double& elapsed)
{
    const std::vector<double> due = poisson_schedule(seed, kOpenRateHz,
                                                     seconds);
    struct Pending {
        Sample sample;
        std::future<serve::Response> future;
    };
    std::vector<Pending> pending;
    std::vector<Sample> samples;
    samples.reserve(due.size());
    const auto poll = [&] {
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++i;
                continue;
            }
            finish(ctx, pending[i].sample, std::move(pending[i].future));
            record_spans(ctx, pending[i].sample);
            samples.push_back(std::move(pending[i].sample));
            pending[i] = std::move(pending.back());
            pending.pop_back();
        }
        std::this_thread::yield();
    };

    StreamCursor cursor(seed * 7919 + 1);
    const auto start = Clock::now();
    const std::int64_t start_ns = ctx.recorder.now_ns();
    for (const double offset : due) {
        const Draw draw = ctx.stream.draw(cursor);
        const auto due_at =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset));
        while (Clock::now() < due_at)
            poll();
        Pending item;
        item.sample.family = draw.family;
        item.sample.input = draw.input_seed;
        item.sample.tid = 1;
        item.sample.request = ctx.next_request.fetch_add(1) + 1;
        item.sample.due_ns = start_ns + static_cast<std::int64_t>(offset * 1e9);
        item.sample.begin_ns = item.sample.due_ns;
        item.sample.submit_ns = ctx.recorder.now_ns();
        auto ticket = ctx.service.submit(
            ctx.families[draw.family].spec.name, draw.input_seed,
            serve::SubmitOptions::within(kOpenBudget));
        item.sample.submitted_ns = ctx.recorder.now_ns();
        if (ticket.accepted) {
            item.future = std::move(ticket.response);
            pending.push_back(std::move(item));
        } else {
            item.sample.done_ns = item.sample.submitted_ns;
            record_spans(ctx, item.sample);
            samples.push_back(std::move(item.sample));
        }
    }
    while (!pending.empty())
        poll();
    elapsed = std::max(seconds, seconds_since(start));
    return samples;
}

struct LoadRun {
    std::vector<Sample> samples;
    double elapsed = 0.0;
};

LoadRun
run_load(LoadContext& ctx, const std::string& workload, std::uint64_t seed,
         double seconds)
{
    LoadRun run;
    if (workload == "small_open")
        run.samples = open_loop(ctx, seed, seconds, run.elapsed);
    else
        run.samples = closed_loop(ctx, seed, seconds, run.elapsed);
    return run;
}

double
latency_ms(const Sample& sample)
{
    const std::int64_t begin = sample.due_ns ? sample.due_ns
                                             : sample.submit_ns;
    return static_cast<double>(sample.done_ns - begin) * 1e-6;
}

/// Ok completions per second over the run's measured window.
double
throughput_rps(const LoadRun& run, double seconds)
{
    std::vector<Timed> completions;
    std::int64_t window_start = std::numeric_limits<std::int64_t>::max();
    for (const Sample& sample : run.samples) {
        window_start = std::min(window_start, sample.due_ns ? sample.due_ns
                                                            : sample.submit_ns);
        if (sample.ok)
            completions.push_back({sample.done_ns, latency_ms(sample)});
    }
    return windowed_rate(completions, window_start, seconds);
}

std::uint64_t
rejected(const serve::MetricsSnapshot& m)
{
    return m.rejected_full + m.rejected_unknown + m.rejected_stopped +
           m.rejected_closed_race + m.rejected_deadline;
}

/// Requests that went through batches between two snapshots.
double
batched_requests(const serve::BatchSnapshot& batch)
{
    return batch.mean_size * static_cast<double>(batch.batches);
}

int
run_serve(const Options& options, const WorkloadSpec& spec)
{
    configure_store(options);
    serve::ApproxService service(service_config());
    RegisterTimes times;
    auto families = register_families(service, spec, times);
    build_replay(families);
    const RequestStream stream(options.seed, stream_spec(spec));
    OutputGate gate(gate_families(families));
    std::atomic<std::uint64_t> next_request{0};

    // Warm-up on a different stream seed; nothing is recorded.
    {
        SpanRecorder quiet(false);
        LoadContext ctx{service, families, stream, nullptr, quiet,
                        next_request};
        run_load(ctx, options.workload, options.seed ^ 0x3a3a3a3aull,
                 options.warmup_seconds);
        service.drain();
    }

    const serve::MetricsSnapshot before = service.snapshot().metrics;
    SpanRecorder untraced(false);
    SpanRecorder traced(true);
    LoadRun measured;
    LoadRun baseline;  ///< Untraced half of a traced run.
    if (options.trace) {
        LoadContext plain{service, families, stream, &gate, untraced,
                          next_request};
        baseline = run_load(plain, options.workload, options.seed,
                            options.seconds / 2);
        service.drain();
        LoadContext ctx{service, families, stream, &gate, traced,
                        next_request};
        measured = run_load(ctx, options.workload, options.seed,
                            options.seconds / 2);
    } else {
        LoadContext ctx{service, families, stream, &gate, untraced,
                        next_request};
        measured = run_load(ctx, options.workload, options.seed,
                            options.seconds);
    }
    service.drain();
    const serve::MetricsSnapshot after = service.snapshot().metrics;

    // Correctness gate and quality, outside the timed phase.
    const GateResult verdict = gate.verify();

    PhaseResult result;
    put_fingerprint(result, service, families);
    std::vector<double> latencies;
    std::vector<Timed> timed_latencies;
    std::vector<double> shadowed_latencies;
    std::uint64_t ok = 0;
    for (const Sample& sample : measured.samples) {
        ++result.attempted;
        if (!sample.ok)
            continue;
        ++ok;
        latencies.push_back(latency_ms(sample));
        timed_latencies.push_back({sample.done_ns, latencies.back()});
        if (sample.shadowed)
            shadowed_latencies.push_back(latency_ms(sample));
    }
    const std::uint64_t good =
        ok > verdict.mismatches ? ok - verdict.mismatches : 0;
    result.failed = result.attempted - good;
    result.mismatches = verdict.mismatches;
    const double matched = static_cast<double>(
        verdict.checked - verdict.mismatches);
    const double attempted_all = static_cast<double>(
        result.attempted + baseline.samples.size());

    const double window_seconds =
        options.trace ? options.seconds / 2 : options.seconds;
    result.metrics["throughput_rps"] = throughput_rps(measured, window_seconds);
    result.metrics["latency_p50_ms"] =
        windowed_percentile(timed_latencies, 0.50, 100, 10);
    result.metrics["latency_p99_ms"] =
        windowed_percentile(timed_latencies, 0.99);
    result.metrics["ok_share"] =
        result.attempted ? static_cast<double>(good) / result.attempted : 0.0;
    result.metrics["toq_met_share"] =
        attempted_all > 0 ? static_cast<double>(verdict.toq_met) /
                                attempted_all
                          : 0.0;
    result.metrics["quality_mean_pct"] =
        matched > 0 ? verdict.quality_sum / matched : 0.0;
    result.metrics["peak_rss_mb"] = peak_rss_mb();

    if (options.trace) {
        // Per-layer view of the traced half.
        std::vector<double> exec_us;
        std::vector<double> submit_us;
        std::vector<double> wait_ms;
        double exec_total_us = 0.0;
        double instructions_total = 0.0;
        for (const Sample& sample : measured.samples) {
            submit_us.push_back(
                static_cast<double>(sample.submitted_ns - sample.submit_ns) *
                1e-3);
            if (!sample.ok)
                continue;
            const ReplayInfo replay =
                gate.replay_info(sample.family, sample.label, sample.input);
            exec_us.push_back(replay.exec_us);
            exec_total_us += replay.exec_us;
            instructions_total += replay.instructions;
            wait_ms.push_back(latency_ms(sample) - replay.exec_us * 1e-3);
            const std::int64_t exec_ns = std::min<std::int64_t>(
                static_cast<std::int64_t>(replay.exec_us * 1e3),
                sample.done_ns - sample.submitted_ns);
            traced.add(sample.wait_span, sample.request, "vm.exec",
                       sample.done_ns - exec_ns, sample.done_ns, sample.tid);
        }
        const double n_ok = std::max<double>(1.0, static_cast<double>(ok));
        result.metrics["vm.exec_us_p50"] = percentile(exec_us, 0.50);
        result.metrics["vm.exec_us_p99"] = percentile(exec_us, 0.99);
        result.metrics["vm.instructions_per_request"] =
            instructions_total / n_ok;
        result.metrics["vm.ns_per_instruction"] =
            instructions_total > 0 ? exec_total_us * 1e3 / instructions_total
                                   : 0.0;
        result.metrics["vm.exec_share_of_p50"] =
            result.metrics["latency_p50_ms"] > 0
                ? result.metrics["vm.exec_us_p50"] * 1e-3 /
                      result.metrics["latency_p50_ms"]
                : 0.0;
        put_p50_p99(result, "serve.submit_us", submit_us);
        put_p50_p99(result, "serve.wait_ms", wait_ms);

        const double batched =
            batched_requests(after.batch) - batched_requests(before.batch);
        const double batches =
            static_cast<double>(after.batch.batches - before.batch.batches);
        result.metrics["serve.batch_mean"] =
            batches > 0 ? batched / batches : 0.0;
        result.metrics["serve.coalesced_share"] =
            batched > 0 ? static_cast<double>(after.batch.coalesced_requests -
                                              before.batch.coalesced_requests) /
                              batched
                        : 0.0;
        const double served =
            static_cast<double>(after.served - before.served);
        result.metrics["serve.rejected"] =
            static_cast<double>(rejected(after) - rejected(before));
        result.metrics["serve.deadline_expired"] =
            static_cast<double>(after.deadline_expired -
                                before.deadline_expired);
        result.metrics["serve.degraded_share"] =
            served > 0 ? static_cast<double>(after.degraded_serves -
                                             before.degraded_serves) /
                             served
                       : 0.0;
        result.metrics["runtime.shadow_share"] =
            served > 0 ? static_cast<double>(after.shadow_runs -
                                             before.shadow_runs) /
                             served
                       : 0.0;
        result.metrics["runtime.shadowed_latency_p50_ms"] =
            percentile(shadowed_latencies, 0.50);
        result.metrics["runtime.backoffs"] = static_cast<double>(after.backoffs);
        result.metrics["runtime.quarantines"] =
            static_cast<double>(after.quarantines);
        result.metrics["runtime.recalibrations"] =
            static_cast<double>(after.recalibrations);

        // Tracing cost on closed loops: the untraced and the traced half,
        // same stream, same estimator.  The open loop's throughput is
        // pinned to its offered rate, so it has none to compare.
        if (options.workload != "small_open")
            result.metrics["trace.overhead_pct"] =
                (throughput_rps(baseline, window_seconds) /
                     result.metrics["throughput_rps"] -
                 1.0) *
                100.0;

        // Self time per request of each layer, and what end-to-end time
        // they leave unexplained.  End-to-end is measured apart from the
        // spans: a closed-loop client's wall time per request, or the
        // open loop's latency from due time.
        const double n = std::max<double>(
            1.0, static_cast<double>(measured.samples.size()));
        const auto self = traced.self_seconds();
        const auto per_request = [&](const char* layer) {
            const auto it = self.find(layer);
            return it == self.end() ? 0.0 : it->second * 1e3 / n;
        };
        double e2e_ms = kClients * measured.elapsed * 1e3 / n;
        if (options.workload == "small_open") {
            e2e_ms = 0.0;
            for (const Sample& sample : measured.samples)
                e2e_ms += latency_ms(sample) / n;
        }
        result.metrics["self.e2e_ms"] = e2e_ms;
        result.metrics["self.serve_submit_ms"] = per_request("serve.submit");
        result.metrics["self.serve_wait_ms"] = per_request("serve.wait");
        result.metrics["self.vm_exec_ms"] = per_request("vm.exec");
        result.metrics["self.unattributed_ms"] =
            e2e_ms - result.metrics["self.serve_submit_ms"] -
            result.metrics["self.serve_wait_ms"] -
            result.metrics["self.vm_exec_ms"];

        {
            // Coalesced launch vs one-at-a-time on the first family (the
            // hot kernel on small_open).
            const Family& hot = families.front();
            const std::string label =
                service.kernel_snapshot(hot.spec.name).selected;
            const int index = find_variant(hot.replay, label);
            const auto& inputs = stream.inputs(0);
            const std::vector<std::uint64_t> seeds(
                inputs.begin(),
                inputs.begin() + std::min<std::size_t>(16, inputs.size()));
            if (index >= 0 && hot.replay[static_cast<std::size_t>(index)]
                                  .run_batch) {
                const auto& variant =
                    hot.replay[static_cast<std::size_t>(index)];
                std::vector<double> batch_us;
                std::vector<double> single_us;
                for (int rep = 0; rep < 5; ++rep) {
                    auto start = Clock::now();
                    variant.run_batch(seeds);
                    batch_us.push_back(seconds_since(start) * 1e6 /
                                       static_cast<double>(seeds.size()));
                    for (const std::uint64_t input : seeds) {
                        start = Clock::now();
                        variant.run_fast(input);
                        single_us.push_back(seconds_since(start) * 1e6);
                    }
                }
                result.metrics["exec.batch_member_us"] =
                    percentile(batch_us, 0.5);
                result.metrics["exec.single_member_us"] =
                    percentile(single_us, 0.5);
            }
        }
        if (!options.trace_path.empty())
            traced.write_chrome(options.trace_path);
    }
    service.stop();
    print_result("serve", result);
    return 0;
}

}  // namespace

int
run_inprocess(const Options& options)
{
    const WorkloadSpec spec = workload_spec(options.workload);
    if (options.phase == "setup")
        return run_setup(options, spec);
    if (options.phase == "restart")
        return run_restart(options, spec);
    if (options.phase == "serve")
        return run_serve(options, spec);
    std::fprintf(stderr, "unknown phase `%s`\n", options.phase.c_str());
    return 2;
}

}  // namespace perfbench
