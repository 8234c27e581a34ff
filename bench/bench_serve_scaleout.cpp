/// @file
/// Multi-process scale-out throughput and calibration-plane accounting.
///
/// Spawns fleets of 1, 2, and 4 replica processes (fork/exec of this
/// binary in --replica-worker mode), each an ApproxService behind an
/// AF_UNIX ReplicaServer sharing one artifact store, and routes a fixed
/// request stream through a FrontDoor.  Two numbers matter:
///
///   - throughput scaling: every request costs the same device-modeled
///     work, so fleet completion time is the busiest replica's modeled
///     busy time and throughput is total served over that.  The real
///     wall clock on a small CI box serializes all processes onto a
///     couple of cores; the device model is the currency every other
///     figure in this repo reports, and under it least-outstanding
///     routing should scale near-linearly (>= 1.7x at 2, >= 3x at 4);
///
///   - drift economics: one injected drift event per fleet must cost
///     exactly one re-profiling sweep fleet-wide — one replica takes the
///     drift lock and publishes, every peer adopts, nobody redundantly
///     recalibrates.
///
/// --smoke runs the 2-replica fleet only and exits non-zero unless the
/// fleet served every request terminally (unresolved=0), adopted at
/// least one published calibration, and burned zero redundant sweeps.
///
/// Internal: bench_serve_scaleout --replica-worker ID SOCKET STORE_DIR

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_support.h"
#include "net/calibration_plane.h"
#include "net/frontdoor.h"
#include "net/replica.h"
#include "net/wire.h"
#include "serve/service.h"
#include "store/artifact_store.h"

namespace paraprox::bench {
namespace {

constexpr double kToq = 90.0;
constexpr double kScale = 0.1;
constexpr int kRequests = 96;
constexpr int kSmokeRequests = 24;
constexpr double kModelClockHz = 1.62e9;
const std::vector<std::uint64_t> kTrainingSeeds = {101, 202};

/// Every replica registers this same kernel family; the fleet
/// calibration key must also be derived identically in every process.
std::unique_ptr<apps::Application>
fleet_app()
{
    auto apps = make_scaled_apps(kScale, {"Mean Filter"});
    return std::move(apps.front());
}

store::StoreKey
fleet_key(const std::string& kernel, runtime::Metric metric)
{
    store::StoreKey key;
    key.kernel = kernel;
    key.device = device::DeviceModel::gtx560().name;
    key.toq = kToq;
    key.metric = runtime::to_string(metric);
    key.detail = "fleet";
    return key;
}

int
run_replica_worker(const std::string& id, const std::string& socket_path,
                   const std::string& store_dir)
{
    auto store = store::ArtifactStore::configure_global(store_dir);

    serve::ServiceConfig config;
    config.num_workers = 2;
    serve::ApproxService service(config);

    net::CalibrationPlane plane(service, store);

    const auto device = device::DeviceModel::gtx560();
    auto app = fleet_app();
    const auto info = app->info();
    service.register_kernel(info.name, app->variants(device), info.metric,
                            kToq, kTrainingSeeds);
    plane.track(info.name, fleet_key(info.name, info.metric));
    plane.start();

    net::ReplicaOptions options;
    options.id = id;
    options.socket_path = socket_path;
    net::ReplicaServer server(service, &plane, options);
    if (!server.start())
        return 1;
    while (!server.shutdown_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(10));

    server.stop();
    service.stop();
    plane.stop();
    return 0;
}

pid_t
spawn_worker(const std::string& id, const std::string& socket_path,
             const std::string& store_dir)
{
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    execl("/proc/self/exe", "bench_serve_scaleout", "--replica-worker",
          id.c_str(), socket_path.c_str(), store_dir.c_str(),
          static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
}

struct FleetResult {
    int replicas = 0;
    int requests = 0;
    int ok = 0;
    int unresolved = 0;  ///< Routed requests without a terminal reply.
    double modeled_rps = 0.0;
    /// Fleet-wide drift accounting, summed over replicas.
    std::uint64_t recalibrations = 0;
    std::uint64_t adopted = 0;
    std::uint64_t redundant = 0;
    std::uint64_t published = 0;
    std::uint64_t max_served = 0;  ///< Busiest replica's request count.
};

/// Bring up a fleet of @p replicas, push @p requests through a front
/// door, inject one drift event, and account for everything.
std::optional<FleetResult>
run_fleet(int replicas, int requests, const std::string& run_dir,
          double work_cycles)
{
    const std::string fleet_dir =
        run_dir + "/fleet-" + std::to_string(replicas);
    const std::string store_dir = fleet_dir + "/store";
    std::filesystem::create_directories(store_dir);

    std::vector<pid_t> pids;
    std::vector<net::ReplicaEndpoint> endpoints;
    for (int i = 0; i < replicas; ++i) {
        net::ReplicaEndpoint endpoint;
        endpoint.id = "replica-" + std::to_string(i);
        endpoint.socket_path = fleet_dir + "/" + endpoint.id + ".sock";
        pids.push_back(
            spawn_worker(endpoint.id, endpoint.socket_path, store_dir));
        endpoints.push_back(std::move(endpoint));
    }
    for (const auto& endpoint : endpoints) {
        if (!wait_for_endpoint(endpoint.socket_path,
                               std::chrono::seconds(60))) {
            std::fprintf(stderr, "scaleout: %s never came up\n",
                         endpoint.id.c_str());
            return std::nullopt;
        }
    }

    net::FrontDoor door(endpoints);
    if (!door.start())
        return std::nullopt;

    FleetResult result;
    result.replicas = replicas;
    result.requests = requests;

    // Throughput phase.
    const auto app = fleet_app();
    const std::string kernel = app->info().name;
    for (int i = 0; i < requests; ++i) {
        net::SubmitRequest request;
        request.kernel = kernel;
        request.toq = kToq;
        request.input = net::SubmitRequest::seed_input(
            9000 + static_cast<std::uint64_t>(i));
        const net::SubmitReply reply = door.route(std::move(request));
        if (reply.status == net::WireStatus::Ok)
            ++result.ok;
        else if (reply.status != net::WireStatus::DeadlineExceeded &&
                 reply.status != net::WireStatus::Rejected)
            ++result.unresolved;
    }

    // Device-modeled fleet throughput: all requests cost the same
    // modeled work, so completion time is set by the busiest replica.
    std::vector<std::uint64_t> served_before(endpoints.size(), 0);
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        const auto stats = door.replica_stats(i);
        if (!stats)
            return std::nullopt;
        result.max_served = std::max(result.max_served, stats->served);
        served_before[i] = stats->served;
    }
    if (result.max_served > 0) {
        const double busiest_seconds =
            static_cast<double>(result.max_served) * work_cycles /
            kModelClockHz;
        result.modeled_rps =
            static_cast<double>(result.ok) / busiest_seconds;
    }

    // Drift phase: announce one drift event to every replica at once and
    // wait until each one resolved it terminally (published or adopted).
    net::DriftRequest drift;
    drift.kernel = kernel;
    for (std::size_t i = 0; i < endpoints.size(); ++i)
        door.call(i, net::MsgType::DriftRequest, drift.encode());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        std::size_t resolved = 0;
        for (std::size_t i = 0; i < endpoints.size(); ++i) {
            if (const auto stats = door.replica_stats(i);
                stats && stats->published_calibrations +
                                 stats->adopted_calibrations >
                             0)
                ++resolved;
        }
        if (resolved == endpoints.size())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        const auto stats = door.replica_stats(i);
        if (!stats)
            return std::nullopt;
        result.recalibrations += stats->recalibrations;
        result.adopted += stats->adopted_calibrations;
        result.redundant += stats->redundant_recalibrations;
        result.published += stats->published_calibrations;
    }

    const auto door_stats = door.stats();
    result.unresolved += static_cast<int>(
        static_cast<std::uint64_t>(requests) - door_stats.requests);

    for (std::size_t i = 0; i < endpoints.size(); ++i)
        door.call(i, net::MsgType::ShutdownRequest, {});
    door.stop();
    for (const pid_t pid : pids) {
        int status = 0;
        waitpid(pid, &status, 0);
    }
    return result;
}

int
run(bool smoke)
{
    const std::string run_dir =
        "/tmp/paraprox-scaleout-" + std::to_string(getpid());
    std::filesystem::create_directories(run_dir);

    // Price one request: the exact kernel's modeled cycles, the same
    // for every request in the stream.
    const auto device = device::DeviceModel::gtx560();
    const auto app = fleet_app();
    const double work_cycles =
        app->variants(device)[0].run(101).modeled_cycles;

    const int requests = smoke ? kSmokeRequests : kRequests;
    const std::vector<int> fleets =
        smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 4};

    print_header("Scale-out serving: modeled throughput and drift "
                 "economics (TOQ=90%)");
    print_row({"replicas", "ok", "modeled rps", "speedup", "recals",
               "adopted", "redundant", "unresolved"});

    BenchReport report("serve_scaleout");
    report.config()
        .set("toq", kToq)
        .set("scale", kScale)
        .set("requests_per_fleet", requests)
        .set("work_cycles_per_request", work_cycles)
        .set("model_clock_hz", kModelClockHz)
        .set("smoke", smoke);

    std::vector<FleetResult> results;
    double baseline_rps = 0.0;
    int exit_code = 0;
    for (const int replicas : fleets) {
        const auto result =
            run_fleet(replicas, requests, run_dir, work_cycles);
        if (!result) {
            std::fprintf(stderr, "scaleout: fleet of %d failed\n",
                         replicas);
            exit_code = 1;
            break;
        }
        if (replicas == fleets.front())
            baseline_rps = result->modeled_rps;
        const double speedup = baseline_rps > 0.0
                                   ? result->modeled_rps / baseline_rps
                                   : 0.0;
        print_row({std::to_string(result->replicas),
                   std::to_string(result->ok), fmt(result->modeled_rps, 0),
                   fmt(speedup, 2),
                   std::to_string(result->recalibrations),
                   std::to_string(result->adopted),
                   std::to_string(result->redundant),
                   std::to_string(result->unresolved)});
        report.add_row()
            .set("replicas", result->replicas)
            .set("ok", result->ok)
            .set("modeled_rps", result->modeled_rps)
            .set("speedup_vs_single", speedup)
            .set("recalibrations", result->recalibrations)
            .set("adopted_calibrations", result->adopted)
            .set("redundant_recalibrations", result->redundant)
            .set("unresolved", result->unresolved);
        results.push_back(*result);
    }

    for (const auto& result : results) {
        // One drift event per fleet must cost exactly one sweep.
        if (result.recalibrations != 1 || result.redundant != 0 ||
            result.adopted <
                static_cast<std::uint64_t>(result.replicas) - 1 ||
            result.unresolved != 0) {
            std::printf("scaleout: drift accounting violated for %d "
                        "replicas (recals=%llu adopted=%llu "
                        "redundant=%llu unresolved=%d)\n",
                        result.replicas,
                        static_cast<unsigned long long>(
                            result.recalibrations),
                        static_cast<unsigned long long>(result.adopted),
                        static_cast<unsigned long long>(result.redundant),
                        result.unresolved);
            exit_code = 1;
        }
    }

    if (smoke) {
        const FleetResult& fleet = results.empty() ? FleetResult{}
                                                   : results.front();
        std::printf("scaleout_smoke: replicas=%d ok=%d "
                    "adopted_calibrations=%llu redundant_recalibrations="
                    "%llu unresolved=%d\n",
                    fleet.replicas, fleet.ok,
                    static_cast<unsigned long long>(fleet.adopted),
                    static_cast<unsigned long long>(fleet.redundant),
                    fleet.unresolved);
        if (fleet.adopted < 1 || fleet.redundant != 0 ||
            fleet.unresolved != 0)
            exit_code = 1;
    } else if (results.size() == 3) {
        const double speedup2 =
            results[1].modeled_rps / results[0].modeled_rps;
        const double speedup4 =
            results[2].modeled_rps / results[0].modeled_rps;
        std::printf("\nscaleout_speedup: x2=%.2f x4=%.2f (targets: "
                    ">=1.7, >=3.0)\n",
                    speedup2, speedup4);
        if (speedup2 < 1.7 || speedup4 < 3.0)
            exit_code = 1;
    }

    report.write();
    std::error_code ec;
    std::filesystem::remove_all(run_dir, ec);
    return exit_code;
}

}  // namespace
}  // namespace paraprox::bench

int
main(int argc, char** argv)
{
    if (argc == 5 && std::strcmp(argv[1], "--replica-worker") == 0)
        return paraprox::bench::run_replica_worker(argv[2], argv[3],
                                                   argv[4]);
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--smoke")
            smoke = true;
    }
    return paraprox::bench::run(smoke);
}
