/// @file
/// fleet_drift: two forked replica processes (one worker each) with a
/// calibration plane on a fresh shared store, behind an in-process
/// FrontDoor driven by two closed-loop clients.  Three drift events are
/// broadcast at fixed request indices while traffic flows.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <thread>

#include "net/calibration_plane.h"
#include "net/frontdoor.h"
#include "net/replica.h"
#include "net/wire.h"
#include "store/artifact_store.h"
#include "workloads.h"

namespace perfbench {

namespace net = paraprox::net;
namespace serve = paraprox::serve;
namespace store = paraprox::store;

namespace {

constexpr int kReplicas = 2;
constexpr int kClients = 2;
constexpr std::uint64_t kDeadlineUs = 1'000'000;
/// Request indices (counted across both clients) at which a drift event
/// is broadcast.
constexpr std::uint64_t kDriftAt[] = {200, 700, 1200};

store::StoreKey
plane_key(const FamilySpec& spec, const paraprox::apps::Application& app)
{
    store::StoreKey key = warm_key(spec, app);
    key.detail += " fleet";
    return key;
}

}  // namespace

int
run_replica_worker(const std::string& workload, const std::string& id,
                   const std::string& socket_path,
                   const std::string& store_dir)
{
    auto artifacts = store::ArtifactStore::configure_global(store_dir);
    const WorkloadSpec spec = workload_spec(workload);

    serve::ServiceConfig config;
    config.num_workers = 1;
    serve::ApproxService service(config);
    net::PlaneConfig plane_config;
    plane_config.replica_id = id;
    net::CalibrationPlane plane(service, artifacts, plane_config);

    const auto device = paraprox::device::DeviceModel::gtx560();
    for (const FamilySpec& family : spec.families) {
        const auto app = make_app(family);
        service.register_kernel(family.name, app->variants(device),
                                app->info().metric, family.toq,
                                spec.training_seeds, warm_key(family, *app));
        plane.track(family.name, plane_key(family, *app));
    }
    plane.start();

    net::ReplicaOptions options;
    options.id = id;
    options.socket_path = socket_path;
    net::ReplicaServer server(service, &plane, options);
    if (!server.start())
        return 1;
    while (!server.shutdown_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.stop();
    service.stop();
    plane.stop();
    return 0;
}

namespace {

struct Replica {
    net::ReplicaEndpoint endpoint;
    pid_t pid = -1;
};

pid_t
spawn_replica(const std::string& workload, const Replica& replica,
              const std::string& store_dir)
{
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    // A replica never outlives the benchmark process that spawned it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execl("/proc/self/exe", "perfbench_driver", "--replica-worker",
          workload.c_str(), replica.endpoint.id.c_str(),
          replica.endpoint.socket_path.c_str(), store_dir.c_str(),
          static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
}

net::SubmitRequest
make_request(const FamilySpec& family, std::uint64_t input)
{
    net::SubmitRequest request;
    request.kernel = family.name;
    request.toq = family.toq;
    request.deadline_us = kDeadlineUs;
    request.input = net::SubmitRequest::seed_input(input);
    return request;
}

/// Wait until @p replica accepts connections (@p spawn_ms gets how long
/// that took), then until it serves one request per family.
bool
wait_serving(const Replica& replica, const WorkloadSpec& spec,
             Clock::time_point start, double* spawn_ms)
{
    const auto give_up = start + std::chrono::seconds(60);
    while (!paraprox::connect_unix(replica.endpoint.socket_path).valid()) {
        if (Clock::now() > give_up)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (spawn_ms != nullptr)
        *spawn_ms = ms_since(start);
    net::FrontDoor door({replica.endpoint});
    for (const FamilySpec& family : spec.families) {
        const auto reply = door.call(0, net::MsgType::SubmitRequest,
                                     make_request(family, 77).encode());
        if (!reply || reply->type != net::MsgType::SubmitReply)
            return false;
        const auto decoded = net::SubmitReply::decode(reply->payload);
        if (!decoded || decoded->status != net::WireStatus::Ok)
            return false;
    }
    return true;
}

void
shutdown_fleet(std::vector<Replica>& fleet)
{
    for (Replica& replica : fleet) {
        if (replica.pid <= 0)
            continue;
        net::FrontDoor door({replica.endpoint});
        if (!door.call(0, net::MsgType::ShutdownRequest, {}))
            kill(replica.pid, SIGKILL);
        int status = 0;
        waitpid(replica.pid, &status, 0);
        replica.pid = -1;
    }
}

/// Kills any replica still running when the phase unwinds early.
struct FleetGuard {
    std::vector<Replica>& fleet;
    ~FleetGuard()
    {
        for (Replica& replica : fleet) {
            if (replica.pid > 0) {
                kill(replica.pid, SIGKILL);
                int status = 0;
                waitpid(replica.pid, &status, 0);
            }
        }
    }
};

std::optional<net::ReplicaStats>
scrape(net::FrontDoor& door, std::size_t index)
{
    const auto reply = door.call(index, net::MsgType::StatsRequest, {});
    if (!reply || reply->type != net::MsgType::StatsReply)
        return std::nullopt;
    return net::ReplicaStats::decode(reply->payload);
}

std::uint64_t
drift_outcomes(const net::ReplicaStats& stats)
{
    return stats.published_calibrations + stats.adopted_calibrations +
           stats.redundant_recalibrations;
}

struct FleetTotals {
    std::uint64_t served = 0;
    std::uint64_t recalibrations = 0;
    std::uint64_t adopted = 0;
    std::uint64_t published = 0;
    std::uint64_t redundant = 0;
    std::uint64_t takeovers = 0;
    std::uint64_t exact_while_recalibrating = 0;
    std::uint64_t deadline_expired = 0;
};

std::optional<FleetTotals>
fleet_totals(net::FrontDoor& door)
{
    FleetTotals totals;
    for (std::size_t i = 0; i < door.num_replicas(); ++i) {
        const auto stats = scrape(door, i);
        if (!stats)
            return std::nullopt;
        totals.served += stats->served;
        totals.recalibrations += stats->recalibrations;
        totals.adopted += stats->adopted_calibrations;
        totals.published += stats->published_calibrations;
        totals.redundant += stats->redundant_recalibrations;
        totals.takeovers += stats->takeovers;
        totals.exact_while_recalibrating += stats->exact_while_recalibrating;
        totals.deadline_expired += stats->deadline_expired;
    }
    return totals;
}

/// Broadcasts drift events on request and times how long the fleet takes
/// to resolve each one (every replica published, adopted or redundant).
class DriftDriver {
  public:
    DriftDriver(net::FrontDoor& door, const WorkloadSpec& spec)
        : door_(door), spec_(spec), thread_([this] { loop(); }) {}
    ~DriftDriver()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }
    DriftDriver(const DriftDriver&) = delete;
    DriftDriver& operator=(const DriftDriver&) = delete;

    void request()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++requested_;
        }
        wake_.notify_all();
    }

    /// Block until every requested drift resolved (or timed out).
    std::vector<double> finish()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return handled_ == requested_; });
        return resolve_ms_;
    }

    std::uint64_t failures() const { return failures_; }

  private:
    void loop()
    {
        for (;;) {
            std::size_t index = 0;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock,
                           [&] { return stopping_ || handled_ < requested_; });
                if (handled_ == requested_)
                    return;
                index = handled_;
            }
            const double ms = drift(index);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (ms < 0)
                    ++failures_;
                else
                    resolve_ms_.push_back(ms);
                ++handled_;
            }
            done_.notify_all();
        }
    }

    double drift(std::size_t index)
    {
        const std::size_t n = door_.num_replicas();
        std::vector<std::uint64_t> before(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const auto stats = scrape(door_, i);
            if (!stats)
                return -1;
            before[i] = drift_outcomes(*stats);
        }
        net::DriftRequest drift;
        drift.kernel = spec_.families[index % spec_.families.size()].name;
        const auto start = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            door_.call(i, net::MsgType::DriftRequest, drift.encode());
        const auto give_up = start + std::chrono::seconds(20);
        while (Clock::now() < give_up) {
            std::size_t resolved = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const auto stats = scrape(door_, i);
                if (stats && drift_outcomes(*stats) > before[i])
                    ++resolved;
            }
            if (resolved == n)
                return ms_since(start);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return -1;
    }

    net::FrontDoor& door_;
    const WorkloadSpec& spec_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::size_t requested_ = 0;
    std::size_t handled_ = 0;
    bool stopping_ = false;
    std::vector<double> resolve_ms_;
    std::uint64_t failures_ = 0;
    std::thread thread_;  ///< Last: starts once the state above exists.
};

struct Call {
    std::size_t family = 0;
    std::uint64_t input = 0;
    std::uint64_t request = 0;
    std::string label;
    std::int64_t start_ns = 0;  ///< Into FrontDoor::route.
    std::int64_t done_ns = 0;   ///< Out of it.
    std::uint64_t route_span = 0;
    int tid = 0;
    bool ok = false;
};

struct LoadResult {
    std::vector<Call> calls;
    double elapsed = 0.0;
};

LoadResult
closed_loop(net::FrontDoor& door, const WorkloadSpec& spec,
            const RequestStream& stream, std::uint64_t seed, double seconds,
            OutputGate* gate, SpanRecorder& recorder, DriftDriver* drifts)
{
    std::atomic<std::uint64_t> counter{0};
    std::vector<std::vector<Call>> per_client(kClients);
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            StreamCursor cursor(seed * 7919 + static_cast<std::uint64_t>(c) + 1);
            auto& calls = per_client[static_cast<std::size_t>(c)];
            while (Clock::now() < stop) {
                const std::int64_t begin_ns = recorder.now_ns();
                const std::uint64_t index = ++counter;
                if (drifts != nullptr &&
                    std::find(std::begin(kDriftAt), std::end(kDriftAt),
                              index) != std::end(kDriftAt))
                    drifts->request();
                const Draw draw = stream.draw(cursor);
                Call call;
                call.family = draw.family;
                call.input = draw.input_seed;
                call.request = index;
                call.tid = c + 1;
                net::SubmitRequest request =
                    make_request(spec.families[draw.family], draw.input_seed);
                call.start_ns = recorder.now_ns();
                const net::SubmitReply reply = door.route(std::move(request));
                call.done_ns = recorder.now_ns();
                call.ok = reply.status == net::WireStatus::Ok;
                call.label = reply.served_by;
                if (call.ok && gate != nullptr)
                    gate->record(call.family, call.label, call.input,
                                 reply.output);
                if (recorder.armed()) {
                    // The root spans the whole client iteration; drawing,
                    // building the request and feeding the gate are left
                    // to the unattributed residual.
                    const std::uint64_t root =
                        recorder.add(0, index, "request", begin_ns,
                                     recorder.now_ns(), call.tid);
                    call.route_span =
                        recorder.add(root, index, "net.route", call.start_ns,
                                     call.done_ns, call.tid);
                }
                calls.push_back(std::move(call));
            }
        });
    }
    for (auto& client : clients)
        client.join();
    LoadResult result;
    result.elapsed = seconds_since(start);
    for (auto& calls : per_client)
        result.calls.insert(result.calls.end(),
                            std::make_move_iterator(calls.begin()),
                            std::make_move_iterator(calls.end()));
    return result;
}

/// Ok completions per second over the load's window.
double
throughput_rps(const LoadResult& load, double seconds)
{
    std::vector<Timed> completions;
    std::int64_t window_start = std::numeric_limits<std::int64_t>::max();
    for (const Call& call : load.calls) {
        window_start = std::min(window_start, call.start_ns);
        if (call.ok)
            completions.push_back({call.done_ns, 0.0});
    }
    return windowed_rate(completions, window_start, seconds);
}

/// Median wall time of @p body over @p reps calls, in microseconds.
template <typename Body>
double
time_us(int reps, Body body)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        body();
        samples.push_back(seconds_since(start) * 1e6);
    }
    return percentile(samples, 0.5);
}

}  // namespace

int
run_fleet(const Options& options)
{
    const WorkloadSpec spec = workload_spec(options.workload);
    const std::string run_dir = options.store;
    std::filesystem::create_directories(run_dir);
    const auto device = paraprox::device::DeviceModel::gtx560();

    // Replay closures for the gate, built in this process (untimed).
    std::vector<GateFamily> gate_families;
    StreamSpec stream_spec;
    for (const FamilySpec& family : spec.families) {
        const auto app = make_app(family);
        gate_families.push_back({family.name, app->info().metric, family.toq,
                                 app->variants(device)});
        stream_spec.slots.push_back(family.slots);
    }
    stream_spec.inputs_per_family = spec.inputs_per_family;
    const RequestStream stream(options.seed, stream_spec);
    OutputGate gate(std::move(gate_families));

    std::vector<Replica> fleet(kReplicas);
    FleetGuard guard{fleet};
    PhaseResult result;

    // Cold starts: a fresh store and fresh replica processes each time.
    // Half run before the measured phase (the last of them serves it), the
    // rest after it, between the warm restarts, so the setup and restart
    // statistics sample the whole run.
    std::vector<double> setup_s;
    std::vector<double> spawn_ms;
    std::string store_dir;
    const auto cold_start = [&](int k) {
        if (!store_dir.empty()) {
            shutdown_fleet(fleet);
            std::filesystem::remove_all(store_dir);
        }
        store_dir = run_dir + "/store-" + std::to_string(k);
        std::filesystem::remove_all(store_dir);
        std::filesystem::create_directories(store_dir);
        // Replicas come up one after another: the first calibrates on the
        // empty store and persists, the next warm-starts from it, so a
        // cold start is one calibration's single-threaded work rather than
        // a race between two.
        const auto start = Clock::now();
        double cold_spawn_ms = 0.0;
        for (int i = 0; i < kReplicas; ++i) {
            Replica& replica = fleet[static_cast<std::size_t>(i)];
            replica.endpoint.id = "replica-" + std::to_string(i);
            replica.endpoint.socket_path =
                run_dir + "/r" + std::to_string(i) + ".sock";
            const auto spawned = Clock::now();
            replica.pid = spawn_replica(options.workload, replica, store_dir);
            double ms = 0.0;
            if (!wait_serving(replica, spec, spawned, &ms)) {
                std::fprintf(stderr, "fleet: %s never served\n",
                             replica.endpoint.id.c_str());
                return false;
            }
            if (i == 0)
                cold_spawn_ms = ms;
        }
        setup_s.push_back(seconds_since(start));
        spawn_ms.push_back(cold_spawn_ms);
        return true;
    };
    // Replica kill and warm respawn from the newest store.
    std::vector<double> restart_s;
    const auto warm_restart = [&] {
        Replica& victim = fleet.back();
        kill(victim.pid, SIGKILL);
        int status = 0;
        waitpid(victim.pid, &status, 0);
        victim.pid = -1;
        const auto start = Clock::now();
        victim.pid = spawn_replica(options.workload, victim, store_dir);
        if (!wait_serving(victim, spec, start, nullptr)) {
            std::fprintf(stderr, "fleet: respawned replica never served\n");
            return false;
        }
        restart_s.push_back(seconds_since(start));
        return true;
    };

    const int setups_before = (options.setups + 1) / 2;
    for (int k = 0; k < setups_before; ++k) {
        if (!cold_start(k))
            return 1;
    }

    std::vector<net::ReplicaEndpoint> endpoints;
    for (const Replica& replica : fleet)
        endpoints.push_back(replica.endpoint);
    net::FrontDoor door(endpoints);

    {
        SpanRecorder quiet(false);
        closed_loop(door, spec, stream, options.seed ^ 0x3a3a3a3aull,
                    options.warmup_seconds, nullptr, quiet, nullptr);
    }

    const auto before = fleet_totals(door);
    const auto door_before = door.stats();
    SpanRecorder recorder(options.trace);
    std::vector<double> resolve_ms;
    std::uint64_t drift_failures = 0;
    LoadResult load;
    {
        DriftDriver drifts(door, spec);
        load = closed_loop(door, spec, stream, options.seed, options.seconds,
                           &gate, recorder, &drifts);
        resolve_ms = drifts.finish();
        drift_failures = drifts.failures();
    }
    const auto after = fleet_totals(door);
    const auto door_after = door.stats();
    if (!before || !after) {
        std::fprintf(stderr, "fleet: stats scrape failed\n");
        return 1;
    }
    // Tracing cost: equal drift-free windows, untraced then traced.
    double trace_overhead_pct = 0.0;
    if (options.trace) {
        SpanRecorder plain(false);
        SpanRecorder armed(true);
        const double window = options.seconds / 4;
        const LoadResult a = closed_loop(door, spec, stream, options.seed + 1,
                                         window, nullptr, plain, nullptr);
        const LoadResult b = closed_loop(door, spec, stream, options.seed + 1,
                                         window, nullptr, armed, nullptr);
        trace_overhead_pct =
            (throughput_rps(a, window) / throughput_rps(b, window) - 1.0) *
            100.0;
    }

    // Codec cost and sizes on one real message per family, and (traced)
    // the direct replica round trip that bypasses routing.
    double encode_us = 0.0;
    double decode_us = 0.0;
    double request_bytes = 0.0;
    double reply_bytes = 0.0;
    std::vector<double> direct_ms;
    {
        net::FrontDoor direct({fleet.front().endpoint});
        for (std::size_t f = 0; f < spec.families.size(); ++f) {
            const net::SubmitRequest request =
                make_request(spec.families[f], stream.inputs(f).front());
            const auto frame = direct.call(0, net::MsgType::SubmitRequest,
                                           request.encode());
            const auto reply =
                frame ? net::SubmitReply::decode(frame->payload)
                      : std::nullopt;
            if (!reply)
                return 1;
            const auto request_blob = request.encode();
            const auto reply_blob = reply->encode();
            request_bytes += static_cast<double>(request_blob.size());
            reply_bytes += static_cast<double>(reply_blob.size());
            encode_us += time_us(200, [&] { request.encode(); }) +
                         time_us(200, [&] { reply->encode(); });
            decode_us += time_us(200, [&] {
                             net::SubmitRequest::decode(request_blob);
                         }) +
                         time_us(200, [&] {
                             net::SubmitReply::decode(reply_blob);
                         });
        }
        const double families = static_cast<double>(spec.families.size());
        encode_us /= families;
        decode_us /= families;
        request_bytes /= families;
        reply_bytes /= families;
        if (options.trace) {
            StreamCursor cursor(options.seed + 17);
            for (int i = 0; i < 200; ++i) {
                const Draw draw = stream.draw(cursor);
                const auto start = Clock::now();
                direct.call(0, net::MsgType::SubmitRequest,
                            make_request(spec.families[draw.family],
                                         draw.input_seed)
                                .encode());
                direct_ms.push_back(ms_since(start));
            }
        }
    }

    const int rounds = options.setups - setups_before + 1;
    for (int round = 0; round < rounds; ++round) {
        if (round > 0 && !cold_start(setups_before + round - 1))
            return 1;
        for (int r = 0; r < options.restarts / rounds +
                                (round < options.restarts % rounds);
             ++r) {
            if (!warm_restart())
                return 1;
        }
    }

    shutdown_fleet(fleet);
    const GateResult verdict = gate.verify();
    std::filesystem::remove_all(run_dir);

    // End-to-end metrics.
    std::vector<double> latencies;
    std::vector<Timed> timed_latencies;
    std::map<std::size_t, std::map<std::string, std::uint64_t>> labels;
    std::uint64_t ok = 0;
    for (const Call& call : load.calls) {
        ++result.attempted;
        if (!call.ok)
            continue;
        ++ok;
        latencies.push_back(static_cast<double>(call.done_ns - call.start_ns) *
                            1e-6);
        timed_latencies.push_back({call.done_ns, latencies.back()});
        ++labels[call.family][call.label];
    }
    const std::uint64_t good =
        ok > verdict.mismatches ? ok - verdict.mismatches : 0;
    result.failed = result.attempted - good + drift_failures;
    result.mismatches = verdict.mismatches;
    const double matched =
        static_cast<double>(verdict.checked - verdict.mismatches);
    result.metrics["setup_s"] = percentile(setup_s, 0.5);
    // Interference only lengthens a respawn; the fastest tracks the work.
    result.metrics["restart_s"] = percentile(restart_s, 0.0);
    result.metrics["throughput_rps"] = throughput_rps(load, options.seconds);
    result.metrics["latency_p50_ms"] =
        windowed_percentile(timed_latencies, 0.50, 100, 10);
    result.metrics["latency_p99_ms"] =
        windowed_percentile(timed_latencies, 0.99);
    result.metrics["ok_share"] =
        result.attempted ? static_cast<double>(good) / result.attempted : 0.0;
    result.metrics["toq_met_share"] =
        result.attempted ? static_cast<double>(verdict.toq_met) /
                               result.attempted
                         : 0.0;
    result.metrics["quality_mean_pct"] =
        matched > 0 ? verdict.quality_sum / matched : 0.0;
    result.metrics["peak_rss_mb"] = peak_rss_mb(true);

    // Behaviour fingerprint: drift economics and the dominant served
    // variant per family.
    const std::uint64_t sweeps = after->recalibrations - before->recalibrations;
    const std::uint64_t adopted = after->adopted - before->adopted;
    const std::uint64_t published = after->published - before->published;
    const std::uint64_t redundant = after->redundant - before->redundant;
    result.fingerprint["drifts"] = std::to_string(resolve_ms.size());
    result.fingerprint["sweeps"] = std::to_string(sweeps);
    result.fingerprint["adopted"] = std::to_string(adopted);
    result.fingerprint["published"] = std::to_string(published);
    result.fingerprint["redundant"] = std::to_string(redundant);
    result.fingerprint["takeovers"] =
        std::to_string(after->takeovers - before->takeovers);
    for (const auto& [family, counts] : labels) {
        const auto top = std::max_element(
            counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
        result.fingerprint["served." + spec.families[family].name] =
            top->first;
    }

    if (options.trace) {
        std::vector<double> exec_us;
        std::vector<double> wait_ms;
        double exec_total_us = 0.0;
        double instructions_total = 0.0;
        const double codec_ns = (encode_us + decode_us) * 2e3;
        for (const Call& call : load.calls) {
            if (!call.ok)
                continue;
            const ReplayInfo replay =
                gate.replay_info(call.family, call.label, call.input);
            exec_us.push_back(replay.exec_us);
            exec_total_us += replay.exec_us;
            instructions_total += replay.instructions;
            const double latency =
                static_cast<double>(call.done_ns - call.start_ns) * 1e-6;
            wait_ms.push_back(latency - replay.exec_us * 1e-3);
            // Attributed children of the route span: replayed execution
            // and the codec work (each message is encoded and decoded
            // twice on the way: client->door->replica and back).
            const std::int64_t span_ns = call.done_ns - call.start_ns;
            const std::int64_t exec_ns = std::min<std::int64_t>(
                static_cast<std::int64_t>(replay.exec_us * 1e3), span_ns);
            const std::int64_t codec = std::min<std::int64_t>(
                static_cast<std::int64_t>(codec_ns), span_ns - exec_ns);
            recorder.add(call.route_span, call.request, "vm.exec",
                         call.done_ns - exec_ns, call.done_ns, call.tid);
            recorder.add(call.route_span, call.request, "net.codec",
                         call.start_ns, call.start_ns + codec, call.tid);
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
            result.metrics["vm.exec_us_p50"] * 1e-3 /
            result.metrics["latency_p50_ms"];
        put_p50_p99(result, "serve.wait_ms", wait_ms);
        result.metrics["serve.deadline_expired"] = static_cast<double>(
            after->deadline_expired - before->deadline_expired);
        result.metrics["serve.rejected"] = static_cast<double>(
            door_after.deadline_rejects + door_after.rejected_no_replica -
            door_before.deadline_rejects - door_before.rejected_no_replica);
        put_p50_p99(result, "net.route_ms", latencies);
        result.metrics["net.direct_ms_p50"] = percentile(direct_ms, 0.5);
        result.metrics["net.encode_us"] = encode_us;
        result.metrics["net.decode_us"] = decode_us;
        result.metrics["net.request_bytes"] = request_bytes;
        result.metrics["net.reply_bytes"] = reply_bytes;
        result.metrics["net.requeues"] =
            static_cast<double>(door_after.requeues - door_before.requeues);
        double routed_total = 0.0;
        double routed_max = 0.0;
        double routed_min = 1e300;
        for (std::size_t i = 0; i < door_after.routed.size(); ++i) {
            const double routed = static_cast<double>(
                door_after.routed[i] - door_before.routed[i]);
            routed_total += routed;
            routed_max = std::max(routed_max, routed);
            routed_min = std::min(routed_min, routed);
        }
        result.metrics["net.routed_imbalance"] =
            routed_total > 0 ? (routed_max - routed_min) / routed_total : 0.0;
        result.metrics["plane.drift_resolve_ms"] = percentile(resolve_ms, 0.5);
        result.metrics["plane.sweeps"] = static_cast<double>(sweeps);
        result.metrics["plane.adopted"] = static_cast<double>(adopted);
        result.metrics["plane.redundant"] = static_cast<double>(redundant);
        const double served =
            static_cast<double>(after->served - before->served);
        result.metrics["plane.exact_share"] =
            served > 0 ? static_cast<double>(after->exact_while_recalibrating -
                                             before->exact_while_recalibrating) /
                             served
                       : 0.0;
        result.metrics["runtime.recalibrations"] = static_cast<double>(sweeps);
        result.metrics["fleet.spawn_ms"] = percentile(spawn_ms, 0.5);
        result.metrics["trace.overhead_pct"] = trace_overhead_pct;

        // Self time per request of each layer; end-to-end is a client's
        // wall time per request, measured apart from the spans.
        const double n = std::max<double>(
            1.0, static_cast<double>(load.calls.size()));
        const auto self = recorder.self_seconds();
        const auto per_request = [&](const char* layer) {
            const auto it = self.find(layer);
            return it == self.end() ? 0.0 : it->second * 1e3 / n;
        };
        const double e2e_ms = kClients * load.elapsed * 1e3 / n;
        result.metrics["self.e2e_ms"] = e2e_ms;
        result.metrics["self.net_route_ms"] = per_request("net.route");
        result.metrics["self.net_codec_ms"] = per_request("net.codec");
        result.metrics["self.vm_exec_ms"] = per_request("vm.exec");
        result.metrics["self.unattributed_ms"] =
            e2e_ms - result.metrics["self.net_route_ms"] -
            result.metrics["self.net_codec_ms"] -
            result.metrics["self.vm_exec_ms"];
        if (!options.trace_path.empty())
            recorder.write_chrome(options.trace_path);
    }
    print_result("fleet", result);
    return 0;
}

}  // namespace perfbench
