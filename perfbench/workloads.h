/// @file
/// The three benchmark workloads and the phases a run is made of.
///
///   kernel_mix   closed loop, 2 clients, in-process 2-worker service
///   small_open   open loop, Poisson arrivals, in-process 2-worker service
///   fleet_drift  closed loop, 2 clients, front door + 2 forked replicas
///
/// In-process workloads run three phases, each a fresh process:
/// `setup` (cold registration on an empty store), `restart` (warm
/// registration from that store plus one request per family) and
/// `serve` (the measured load).  fleet_drift runs as one `fleet` phase
/// that spawns, kills and respawns its replica processes itself.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.h"
#include "runtime/pipeline.h"
#include "serve/service.h"
#include "support.h"

namespace perfbench {

struct Options {
    std::string workload;
    std::string phase;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string store;       ///< Artifact-store directory for this phase.
    std::string trace_path;  ///< Chrome trace output (traced runs).
    int setups = 3;          ///< fleet: cold fleet spawns measured.
    int restarts = 3;        ///< fleet: replica kill/respawn cycles.
    double warmup_seconds = 1.0;
};

/// Set at the top of main(): cold and warm start are timed from here.
extern Clock::time_point g_process_start;

enum class FamilyKind { Kernel, Pipeline, Data };

/// One served family: a registered name and how it is built.
struct FamilySpec {
    std::string name;
    FamilyKind kind = FamilyKind::Kernel;
    std::string app;     ///< Table 1 application (Kernel / Data).
    double scale = 1.0;  ///< Application workload scale.
    double toq = 90.0;
    int slots = 1;       ///< Requests per stream block (the mix).
};

/// The workload's families, training seeds and stream shape.
struct WorkloadSpec {
    std::vector<FamilySpec> families;
    std::vector<std::uint64_t> training_seeds;
    std::size_t inputs_per_family = 32;
};

WorkloadSpec workload_spec(const std::string& workload);

/// A registered family plus the replay closures the output gate uses.
struct Family {
    FamilySpec spec;
    runtime::Metric metric = runtime::Metric::L1Norm;
    std::unique_ptr<paraprox::apps::Application> app;
    std::optional<paraprox::apps::Application::Setup> setup;
    std::unique_ptr<runtime::PipelineSession> pipeline;
    std::vector<runtime::Variant> replay;
};

/// Registration wall time split by layer.
struct RegisterTimes {
    double apps_ms = 0.0;  ///< variants() / setup() / make_image_pipeline.
    double kernel_ms = 0.0;
    double pipeline_ms = 0.0;
    double data_kernel_ms = 0.0;
    double total_ms() const
    {
        return kernel_ms + pipeline_ms + data_kernel_ms;
    }
};

/// Build every family and register it with @p service (warm when the
/// global store already holds its calibration), then build the replay
/// closures outside the timed region.
std::vector<Family> register_families(paraprox::serve::ApproxService& service,
                                      const WorkloadSpec& spec,
                                      RegisterTimes& times);

/// Build a family's variant list exactly as a replica registers it
/// (Kernel families only; used by fleet replicas and the fleet gate).
std::unique_ptr<paraprox::apps::Application> make_app(const FamilySpec& spec);
paraprox::store::StoreKey warm_key(const FamilySpec& spec,
                                   const paraprox::apps::Application& app);

int run_inprocess(const Options& options);
int run_fleet(const Options& options);
int run_replica_worker(const std::string& workload, const std::string& id,
                       const std::string& socket_path,
                       const std::string& store_dir);

}  // namespace perfbench
