// Tests for the scale-out serving stack: wire codecs and framing over
// real AF_UNIX sockets, the artifact store's drift lock (a kernel-held
// flock, freed when its holder is destroyed or its process dies) and
// versioned fleet-calibration records, FrontDoor routing and failover,
// the CalibrationPlane's one-sweep-per-drift economics (lock win /
// inline adopt / watch adopt / takeover / slow winner / failed sweep /
// unlockable store), and the chaos scenario: a replica killed mid-drift
// under armed net.drop + vm.trap faults must not cost a single admitted
// request its reply.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/buffer.h"
#include "exec/launch.h"
#include "net/calibration_plane.h"
#include "net/frontdoor.h"
#include "net/replica.h"
#include "net/supervisor.h"
#include "net/wire.h"
#include "parser/parser.h"
#include "runtime/variant_run.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "support/faultinject.h"
#include "support/socket.h"
#include "vm/compiler.h"

namespace paraprox::net {
namespace {

using runtime::Metric;
using runtime::Variant;
using runtime::VariantRun;

/// Fresh scratch directory per test; removed on destruction.
struct TempDir {
    std::filesystem::path path;

    explicit TempDir(const std::string& tag)
    {
        static std::atomic<int> counter{0};
        path = std::filesystem::temp_directory_path() /
               ("paraprox-net-" + tag + "-" + std::to_string(::getpid()) +
                "-" + std::to_string(counter.fetch_add(1)));
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

class NetTest : public ::testing::Test {
  protected:
    void SetUp() override { fault::FaultInjector::instance().disarm(); }
    void TearDown() override { fault::FaultInjector::instance().disarm(); }
};

using WireTest = NetTest;
using LeaseTest = NetTest;
using FrontDoorTest = NetTest;
using PlaneTest = NetTest;
using ChaosScaleoutTest = NetTest;
using HealthTest = NetTest;
using SupervisorTest = NetTest;
using ReplicaTest = NetTest;

/// Synthetic variant: seed-derived output at a fixed modeled cost.
/// Non-exact variants visit the vm.trap fault site so chaos specs can
/// turn runs into traps; @p sleep_ms stretches the re-profiling sweep.
Variant
fake_variant(const std::string& label, int aggressiveness, float bias,
             double cycles, int sleep_ms = 0)
{
    return {label, aggressiveness,
            [label, bias, cycles, sleep_ms](std::uint64_t seed) {
                if (sleep_ms > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(sleep_ms));
                VariantRun run;
                if (label != "exact" && fault::fire("vm.trap", label)) {
                    run.trapped = true;
                    return run;
                }
                run.output = {static_cast<float>(seed % 100) + 1.0f + bias,
                              10.0f + bias};
                run.modeled_cycles = cycles;
                run.wall_seconds = cycles * 1e-9;
                return run;
            }};
}

std::vector<Variant>
fleet_variants(int approx_sleep_ms = 0)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(
        fake_variant("good", 1, 0.1f, 100.0, approx_sleep_ms));
    return variants;
}

void
register_fleet_kernel(serve::ApproxService& service,
                      std::vector<Variant> variants = fleet_variants())
{
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
}

store::StoreKey
fleet_key()
{
    store::StoreKey key;
    key.kernel = "k";
    key.device = "testdev";
    key.toq = 90.0;
    key.metric = runtime::to_string(Metric::MeanRelativeError);
    key.detail = "fleet";
    return key;
}

/// A real calibration over fleet_variants(), for fleet-record tests.
runtime::CalibrationState
calibrated_state()
{
    runtime::Tuner tuner(fleet_variants(), Metric::MeanRelativeError,
                         90.0);
    tuner.calibrate({1, 2, 3});
    return tuner.calibration_state();
}

store::FleetCalibrationArtifact
fleet_artifact()
{
    store::FleetCalibrationArtifact artifact;
    artifact.calibration = calibrated_state();
    artifact.toq = 90.0;
    artifact.metric = runtime::to_string(Metric::MeanRelativeError);
    return artifact;
}

/// Publish @p artifact as the next fleet version through a fresh store
/// handle on @p dir, as a peer replica would; 0 when the lock is taken.
std::uint64_t
publish_as_peer(const std::filesystem::path& dir,
                store::FleetCalibrationArtifact artifact = fleet_artifact())
{
    store::ArtifactStore store(dir);
    const store::FleetLock lock = store.try_lock_fleet(fleet_key());
    return store.publish_fleet_calibration(lock, std::move(artifact));
}

bool
wait_until(const std::function<bool()>& predicate,
           std::chrono::milliseconds timeout =
               std::chrono::milliseconds(5000))
{
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < give_up) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
}

// ---- Wire codecs and framing -----------------------------------------------

TEST_F(WireTest, SubmitRequestRoundtrip)
{
    SubmitRequest request;
    request.kernel = "k";
    request.toq = 92.5;
    request.deadline_us = 12345;
    request.input = SubmitRequest::seed_input(0xdeadbeefcafeull);

    const auto decoded = SubmitRequest::decode(request.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kernel, "k");
    EXPECT_DOUBLE_EQ(decoded->toq, 92.5);
    EXPECT_EQ(decoded->deadline_us, 12345u);
    EXPECT_EQ(decoded->seed(), 0xdeadbeefcafeull);
}

TEST_F(WireTest, SubmitReplyRoundtrip)
{
    SubmitReply reply;
    reply.status = WireStatus::Ok;
    reply.served_by = "good";
    reply.replica = "alpha";
    reply.output = {1.0f, 2.5f, -3.0f};

    const auto decoded = SubmitReply::decode(reply.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, WireStatus::Ok);
    EXPECT_EQ(decoded->served_by, "good");
    EXPECT_EQ(decoded->replica, "alpha");
    EXPECT_EQ(decoded->output, (std::vector<float>{1.0f, 2.5f, -3.0f}));
}

TEST_F(WireTest, ReplicaStatsRoundtrip)
{
    // Every counter gets a distinct value, so two fields swapped in the
    // codec cannot both round-trip.
    ReplicaStats stats;
    stats.replica = "beta";
    std::uint64_t next = 1;
#define PARAPROX_SET(type, name) stats.name = static_cast<type>(next++);
    PARAPROX_REPLICA_STATS(PARAPROX_SET)
#undef PARAPROX_SET

    const auto decoded = ReplicaStats::decode(stats.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->replica, "beta");
#define PARAPROX_CHECK_FIELD(type, name)                                      \
    EXPECT_EQ(decoded->name, stats.name) << #name;
    PARAPROX_REPLICA_STATS(PARAPROX_CHECK_FIELD)
#undef PARAPROX_CHECK_FIELD
}

/// Every strict prefix of @p message's encoding must decode to nullopt.
template <typename Message>
void
expect_prefixes_rejected(const Message& message)
{
    const std::vector<std::uint8_t> good = message.encode();
    ASSERT_TRUE(Message::decode(good).has_value());
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
        const std::vector<std::uint8_t> prefix(good.begin(),
                                               good.begin() + cut);
        EXPECT_FALSE(Message::decode(prefix).has_value()) << "cut " << cut;
    }
}

TEST_F(WireTest, DecodersRejectGarbage)
{
    // Truncation at every prefix must reject, never crash or misparse.
    SubmitRequest request;
    request.kernel = "k";
    request.input = SubmitRequest::seed_input(1);
    expect_prefixes_rejected(request);

    SubmitReply reply;
    reply.status = WireStatus::Ok;
    reply.served_by = "good";
    reply.replica = "alpha";
    reply.output = {1.0f, 2.0f};
    expect_prefixes_rejected(reply);

    ReplicaStats stats;
    stats.replica = "beta";
    stats.served = 3;
    expect_prefixes_rejected(stats);

    DriftRequest drift;
    drift.kernel = "k";
    expect_prefixes_rejected(drift);

    DriftReply drift_reply;
    drift_reply.accepted = true;
    expect_prefixes_rejected(drift_reply);

    EXPECT_FALSE(SubmitReply::decode({0xff, 0xff, 0xff}).has_value());
}

TEST_F(WireTest, FrameRoundtripOverUnixSocket)
{
    TempDir dir("frame");
    const std::string path = (dir.path / "s.sock").string();
    Listener listener;
    ASSERT_TRUE(listener.listen_unix(path));

    std::thread server([&] {
        Socket connection = listener.accept();
        ASSERT_TRUE(connection.valid());
        const auto frame = recv_frame(connection);
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, MsgType::DriftRequest);
        send_frame(connection, MsgType::DriftReply, frame->payload);
    });

    Socket client = connect_unix(path);
    ASSERT_TRUE(client.valid());
    DriftRequest drift;
    drift.kernel = "k";
    ASSERT_TRUE(
        send_frame(client, MsgType::DriftRequest, drift.encode()));
    const auto reply = recv_frame(client);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MsgType::DriftReply);
    const auto echoed = DriftRequest::decode(reply->payload);
    ASSERT_TRUE(echoed.has_value());
    EXPECT_EQ(echoed->kernel, "k");
    server.join();
    listener.close();
}

TEST_F(WireTest, RecvRejectsBadMagic)
{
    TempDir dir("badframe");
    const std::string path = (dir.path / "s.sock").string();
    Listener listener;
    ASSERT_TRUE(listener.listen_unix(path));

    std::thread server([&] {
        Socket connection = listener.accept();
        ASSERT_TRUE(connection.valid());
        EXPECT_FALSE(recv_frame(connection).has_value());
    });

    Socket client = connect_unix(path);
    ASSERT_TRUE(client.valid());
    // 16 bytes of "XXXX...": wrong magic, absurd everything else.
    const std::vector<std::uint8_t> junk(16, 0x58);
    ASSERT_TRUE(client.send_all(junk.data(), junk.size()));
    client.shutdown_both();
    server.join();
    listener.close();
}

TEST_F(WireTest, ArmedNetDropShutsTheConnectionDown)
{
    TempDir dir("drop");
    const std::string path = (dir.path / "s.sock").string();
    Listener listener;
    ASSERT_TRUE(listener.listen_unix(path));

    std::thread server([&] {
        Socket connection = listener.accept();
        ASSERT_TRUE(connection.valid());
        // The armed drop on the peer's send means this side observes a
        // dead connection, exactly like a killed process.
        EXPECT_FALSE(recv_frame(connection).has_value());
    });

    fault::FaultSpec spec;
    spec.site = "net.drop";
    spec.match = "lossy";
    spec.every = 1;
    fault::FaultInjector::instance().arm({spec});

    Socket client = connect_unix(path);
    ASSERT_TRUE(client.valid());
    EXPECT_FALSE(send_frame(client, MsgType::StatsRequest, {}, "lossy"));
    EXPECT_GE(fault::FaultInjector::instance().fires("net.drop"), 1u);
    server.join();
    listener.close();
}

// ---- The drift lock and fleet calibration records --------------------------

using LockState = store::FleetLock::State;

/// The drift lock's sidecar for fleet_key() (docs/store.md names it).
std::filesystem::path
lock_file(const store::ArtifactStore& store)
{
    return store.path_for(fleet_key(), store::ArtifactKind::FleetCalibration)
               .string() +
           ".lock";
}

TEST_F(LeaseTest, HandlesInOneProcessContendUntilTheHolderIsDestroyed)
{
    TempDir dir("lock");
    store::ArtifactStore alpha(dir.path);
    store::ArtifactStore beta(dir.path);
    const auto key = fleet_key();

    store::FleetLock holder = alpha.try_lock_fleet(key);
    ASSERT_TRUE(holder.held());
    // flock() conflicts between separate open()s, even in one process
    // and through the same store handle.
    EXPECT_EQ(beta.try_lock_fleet(key).state(), LockState::Contended);
    EXPECT_EQ(alpha.try_lock_fleet(key).state(), LockState::Contended);
    // Another key's drift event is independent.
    auto other = key;
    other.kernel = "other";
    EXPECT_TRUE(beta.try_lock_fleet(other).held());

    {
        // A moved handle keeps the lock; the moved-from one holds
        // nothing.
        const store::FleetLock moved = std::move(holder);
        EXPECT_FALSE(holder.held());
        EXPECT_EQ(beta.try_lock_fleet(key).state(), LockState::Contended);
    }
    // Destroying the holding handle frees the key.
    EXPECT_TRUE(beta.try_lock_fleet(key).held());
}

TEST_F(LeaseTest, KilledHolderProcessFreesTheLock)
{
    TempDir dir("lock-kill");
    store::ArtifactStore store(dir.path);
    const auto key = fleet_key();
    // Computed before fork: the gtest binary is multithreaded, so the
    // child may only make async-signal-safe calls.
    const std::string path = lock_file(store).string();
    const char* lock_path = path.c_str();

    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        const int fd = ::open(lock_path, O_CREAT | O_RDWR, 0644);
        const char status =
            fd >= 0 && ::flock(fd, LOCK_EX | LOCK_NB) == 0 ? 'L' : 'E';
        if (::write(ready[1], &status, 1) != 1)
            ::_exit(1);
        for (;;)
            ::pause();
    }
    ::close(ready[1]);
    char status = 0;
    const bool reported = ::read(ready[0], &status, 1) == 1;
    ::close(ready[0]);
    const LockState while_alive = store.try_lock_fleet(key).state();
    ::kill(child, SIGKILL);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(child, &wait_status, 0), child);

    ASSERT_TRUE(reported);
    EXPECT_EQ(status, 'L');
    EXPECT_EQ(while_alive, LockState::Contended);
    // The kernel dropped the dead holder's lock: no expiry to wait out.
    EXPECT_TRUE(store.try_lock_fleet(key).held());
}

TEST_F(LeaseTest, RacingHandlesElectOneHolderAndPublishInTurn)
{
    TempDir dir("lock-race");
    const auto key = fleet_key();

    constexpr int kHandles = 8;
    std::atomic<bool> go{false};
    std::vector<store::FleetLock> locks(kHandles);
    std::vector<std::thread> racers;
    for (int i = 0; i < kHandles; ++i) {
        racers.emplace_back([&, i] {
            store::ArtifactStore store(dir.path);
            while (!go.load())
                std::this_thread::yield();
            locks[i] = store.try_lock_fleet(key);
        });
    }
    go.store(true);
    for (auto& racer : racers)
        racer.join();

    int held = 0;
    int contended = 0;
    int winner = -1;
    for (int i = 0; i < kHandles; ++i) {
        if (locks[i].held()) {
            ++held;
            winner = i;
        }
        contended += locks[i].state() == LockState::Contended;
    }
    ASSERT_EQ(held, 1);
    EXPECT_EQ(contended, kHandles - 1);

    store::ArtifactStore store(dir.path);
    EXPECT_EQ(store.publish_fleet_calibration(locks[winner],
                                              fleet_artifact()),
              1u);
    // A handle that lost the race cannot publish.
    EXPECT_EQ(store.publish_fleet_calibration(locks[(winner + 1) % kHandles],
                                              fleet_artifact()),
              0u);
    locks.clear();

    // The next holder publishes on top of the first.
    const store::FleetLock next = store.try_lock_fleet(key);
    ASSERT_TRUE(next.held());
    EXPECT_EQ(store.publish_fleet_calibration(next, fleet_artifact()), 2u);
    EXPECT_EQ(store.fleet_calibration_version(key), 2u);
}

TEST_F(LeaseTest, PruneKeepsTheLockFile)
{
    TempDir dir("lock-prune");
    store::ArtifactStore store(dir.path);

    ASSERT_EQ(publish_as_peer(dir.path), 1u);
    ASSERT_TRUE(std::filesystem::exists(lock_file(store)));
    ASSERT_EQ(store.list().size(), 1u);  // The record, not the sidecar.

    // The lock lives on the sidecar's inode; deleting it would let two
    // holders lock two different files.
    EXPECT_EQ(store.prune(/*everything=*/true), 1u);
    EXPECT_TRUE(std::filesystem::exists(lock_file(store)));
    EXPECT_TRUE(store.list().empty());
    EXPECT_EQ(store.fleet_calibration_version(fleet_key()), 0u);
}

TEST_F(LeaseTest, FleetCalibrationVersioning)
{
    TempDir dir("fleet");
    store::ArtifactStore store(dir.path);
    const auto key = fleet_key();

    EXPECT_EQ(store.fleet_calibration_version(key), 0u);

    auto artifact = fleet_artifact();
    artifact.quarantined = {"good"};
    // The publish numbers versions itself, under the lock.
    artifact.version = 7;
    {
        const store::FleetLock lock = store.try_lock_fleet(key);
        ASSERT_TRUE(lock.held());
        EXPECT_EQ(store.publish_fleet_calibration(lock, artifact), 1u);
    }
    EXPECT_EQ(store.fleet_calibration_version(key), 1u);

    const auto loaded = store.load_fleet_calibration(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->version, 1u);
    EXPECT_EQ(loaded->quarantined, std::vector<std::string>{"good"});
    EXPECT_EQ(loaded->calibration.profiles.size(),
              artifact.calibration.profiles.size());

    // Only a lock held on this store's directory publishes.
    EXPECT_EQ(store.publish_fleet_calibration(store::FleetLock(), artifact),
              0u);
    TempDir elsewhere("fleet-elsewhere");
    const store::FleetLock foreign =
        store::ArtifactStore(elsewhere.path).try_lock_fleet(key);
    ASSERT_TRUE(foreign.held());
    EXPECT_EQ(store.publish_fleet_calibration(foreign, artifact), 0u);
    EXPECT_EQ(store.fleet_calibration_version(key), 1u);

    // A record under one key must not answer for another kernel's.
    auto other = key;
    other.kernel = "other";
    EXPECT_EQ(store.fleet_calibration_version(other), 0u);
}

// ---- FrontDoor -------------------------------------------------------------

struct InProcessReplica {
    serve::ApproxService service;
    ReplicaServer server;

    InProcessReplica(const std::string& id, const std::string& socket_path)
        : service(small_config()), server(service, nullptr,
                                          {id, socket_path})
    {
        register_fleet_kernel(service);
    }

    static serve::ServiceConfig small_config()
    {
        serve::ServiceConfig config;
        config.num_workers = 2;
        config.queue_capacity = 64;
        return config;
    }
};

TEST_F(FrontDoorTest, LeastOutstandingRoutingBalancesTheFleet)
{
    TempDir dir("route");
    InProcessReplica alpha("alpha", (dir.path / "a.sock").string());
    InProcessReplica beta("beta", (dir.path / "b.sock").string());
    ASSERT_TRUE(alpha.server.start());
    ASSERT_TRUE(beta.server.start());

    FrontDoor door({{"alpha", alpha.server.socket_path()},
                    {"beta", beta.server.socket_path()}});
    ASSERT_TRUE(door.start());

    int ok = 0;
    for (int i = 0; i < 16; ++i) {
        SubmitRequest request;
        request.kernel = "k";
        request.input = SubmitRequest::seed_input(100 + i);
        const SubmitReply reply = door.route(std::move(request));
        if (reply.status == WireStatus::Ok)
            ++ok;
    }
    EXPECT_EQ(ok, 16);

    const auto stats = door.stats();
    EXPECT_EQ(stats.requests, 16u);
    EXPECT_EQ(stats.rejected_no_replica, 0u);
    ASSERT_EQ(stats.routed.size(), 2u);
    // Sequential requests, equal outstanding counts: the round-robin
    // tie-break must spread them instead of pinning one replica.
    EXPECT_GT(stats.routed[0], 0u);
    EXPECT_GT(stats.routed[1], 0u);

    door.stop();
    alpha.server.stop();
    beta.server.stop();
    alpha.service.stop();
    beta.service.stop();
}

TEST_F(FrontDoorTest, DeadReplicaFailsOverWithoutLosingRequests)
{
    TempDir dir("failover");
    InProcessReplica alpha("alpha", (dir.path / "a.sock").string());
    InProcessReplica beta("beta", (dir.path / "b.sock").string());
    ASSERT_TRUE(alpha.server.start());
    ASSERT_TRUE(beta.server.start());

    FrontDoor door({{"alpha", alpha.server.socket_path()},
                    {"beta", beta.server.socket_path()}});
    ASSERT_TRUE(door.start());

    // Prime pooled connections to both replicas.
    for (int i = 0; i < 4; ++i) {
        SubmitRequest request;
        request.kernel = "k";
        request.input = SubmitRequest::seed_input(10 + i);
        EXPECT_EQ(door.route(std::move(request)).status, WireStatus::Ok);
    }

    // Chaos kill: alpha's sockets die without a byte of warning.
    alpha.server.abort();

    int ok = 0;
    for (int i = 0; i < 8; ++i) {
        SubmitRequest request;
        request.kernel = "k";
        request.input = SubmitRequest::seed_input(50 + i);
        const SubmitReply reply = door.route(std::move(request));
        if (reply.status == WireStatus::Ok) {
            ++ok;
            EXPECT_EQ(reply.replica, "beta");
        }
    }
    EXPECT_EQ(ok, 8);
    EXPECT_FALSE(door.replica_alive(0));
    EXPECT_TRUE(door.replica_alive(1));
    const auto stats = door.stats();
    EXPECT_GE(stats.replica_failures, 1u);
    EXPECT_EQ(stats.rejected_no_replica, 0u);

    door.stop();
    alpha.server.stop();
    beta.server.stop();
    alpha.service.stop();
    beta.service.stop();
}

TEST_F(FrontDoorTest, NoLiveReplicaIsACountedRejection)
{
    TempDir dir("nolive");
    InProcessReplica alpha("alpha", (dir.path / "a.sock").string());
    ASSERT_TRUE(alpha.server.start());
    FrontDoor door({{"alpha", alpha.server.socket_path()}});
    ASSERT_TRUE(door.start());

    alpha.server.abort();
    SubmitRequest first;
    first.kernel = "k";
    first.input = SubmitRequest::seed_input(1);
    // The first request discovers the corpse; it and every later
    // request must resolve as a counted rejection, never hang or
    // vanish.
    EXPECT_NE(door.route(std::move(first)).status, WireStatus::Ok);
    SubmitRequest second;
    second.kernel = "k";
    second.input = SubmitRequest::seed_input(2);
    const SubmitReply reply = door.route(std::move(second));
    EXPECT_EQ(reply.status, WireStatus::Rejected);
    EXPECT_NE(reply.reject_reason.find("no live replica"),
              std::string::npos);
    EXPECT_GE(door.stats().rejected_no_replica, 1u);

    door.stop();
    alpha.server.stop();
    alpha.service.stop();
}

// ---- CalibrationPlane ------------------------------------------------------

struct PlaneHarness {
    std::shared_ptr<store::ArtifactStore> store;
    serve::ApproxService service;
    CalibrationPlane plane;

    PlaneHarness(const std::filesystem::path& dir, PlaneConfig config = {},
                 std::vector<Variant> variants = fleet_variants())
        : store(std::make_shared<store::ArtifactStore>(dir)),
          service(InProcessReplica::small_config()),
          plane(service, store, config)
    {
        register_fleet_kernel(service, std::move(variants));
        plane.track("k", fleet_key());
        plane.start();
    }

    void stop()
    {
        service.stop();
        plane.stop();
    }
};

TEST_F(PlaneTest, OneDriftEventCostsOneFleetSweep)
{
    TempDir dir("plane");
    PlaneConfig config;
    config.watch_interval = std::chrono::milliseconds(10);
    // Alpha's sweep sleeps so its lock is still held when beta's gate
    // runs below — without it, a slow box can let alpha publish AND
    // beta's watch thread adopt between the two recalibrate calls, and
    // beta's raise becomes a legitimately new drift event (second
    // sweep), which is not the broadcast interleaving this test pins.
    PlaneHarness alpha(dir.path, config, fleet_variants(30));
    PlaneHarness beta(dir.path, config);

    // The same drift lands on both replicas (the fleet-wide broadcast
    // case); the lock must collapse it to a single re-profiling sweep.
    alpha.service.recalibrate_kernel("k");
    beta.service.recalibrate_kernel("k");

    ASSERT_TRUE(wait_until([&] {
        const auto am = alpha.service.metrics().snapshot();
        const auto bm = beta.service.metrics().snapshot();
        return alpha.plane.stats().published_calibrations +
                       beta.plane.stats().published_calibrations >=
                   1 &&
               am.adopted_calibrations + bm.adopted_calibrations >= 1;
    }));

    const auto am = alpha.service.metrics().snapshot();
    const auto bm = beta.service.metrics().snapshot();
    EXPECT_EQ(am.recalibrations + bm.recalibrations, 1u);
    EXPECT_EQ(am.adopted_calibrations + bm.adopted_calibrations, 1u);
    EXPECT_EQ(am.suppressed_recalibrations + bm.suppressed_recalibrations,
              1u);
    const auto a = alpha.plane.stats();
    const auto b = beta.plane.stats();
    EXPECT_EQ(a.published_calibrations + b.published_calibrations, 1u);
    EXPECT_EQ(a.redundant_recalibrations + b.redundant_recalibrations, 0u);
    EXPECT_FALSE(alpha.service.awaiting_adoption("k"));
    EXPECT_FALSE(beta.service.awaiting_adoption("k"));

    alpha.stop();
    beta.stop();
}

TEST_F(PlaneTest, LatePublishLandsThroughTheWatchThread)
{
    TempDir dir("watch");
    PlaneConfig config;
    config.watch_interval = std::chrono::milliseconds(10);
    PlaneHarness alpha(dir.path, config);
    PlaneHarness beta(dir.path, config);

    // Only alpha sees the drift; beta must still converge onto the
    // published calibration via its version watch.
    alpha.service.recalibrate_kernel("k");

    ASSERT_TRUE(wait_until([&] {
        return beta.service.metrics().snapshot().adopted_calibrations >=
               1;
    }));
    EXPECT_EQ(alpha.plane.stats().published_calibrations, 1u);
    EXPECT_EQ(beta.service.metrics().snapshot().recalibrations, 0u);

    alpha.stop();
    beta.stop();
}

TEST_F(PlaneTest, TakeoverAfterLeaseWinnerDies)
{
    TempDir dir("takeover");
    PlaneConfig config;
    config.watch_interval = std::chrono::milliseconds(10);
    PlaneHarness beta(dir.path, config);

    // A ghost replica holds the drift lock: it won the event and is
    // still recalibrating.
    auto ghost_store = std::make_optional<store::ArtifactStore>(dir.path);
    auto ghost = std::make_optional(ghost_store->try_lock_fleet(fleet_key()));
    ASSERT_TRUE(ghost->held());

    // Beta loses the race and waits, however long the ghost lives.
    beta.service.recalibrate_kernel("k");
    EXPECT_EQ(beta.plane.stats().lease_losses, 1u);
    EXPECT_EQ(
        beta.service.metrics().snapshot().suppressed_recalibrations, 1u);
    EXPECT_TRUE(beta.service.awaiting_adoption("k"));
    const std::uint64_t polls = beta.plane.stats().watch_polls;
    ASSERT_TRUE(wait_until(
        [&] { return beta.plane.stats().watch_polls >= polls + 5; }));
    EXPECT_EQ(beta.plane.stats().takeovers, 0u);

    // The ghost dies mid-sweep, publishing nothing: the kernel drops its
    // lock, and beta's next poll takes the event over and finishes it.
    ghost.reset();
    ghost_store.reset();
    ASSERT_TRUE(wait_until(
        [&] {
            const auto stats = beta.plane.stats();
            return stats.takeovers >= 1 && stats.published_calibrations >= 1;
        },
        std::chrono::milliseconds(1000)));
    EXPECT_EQ(beta.plane.stats().takeovers, 1u);
    EXPECT_EQ(beta.service.metrics().snapshot().recalibrations, 1u);
    EXPECT_EQ(beta.plane.stats().lease_wins, 1u);
    EXPECT_FALSE(beta.service.awaiting_adoption("k"));
    EXPECT_EQ(beta.store->fleet_calibration_version(fleet_key()), 1u);

    beta.stop();
}

TEST_F(PlaneTest, SlowWinnerHoldsTheLockThroughItsPublish)
{
    TempDir dir("slow");
    PlaneConfig config;
    config.watch_interval = std::chrono::milliseconds(10);
    // Alpha's re-profiling sweep sleeps far past the 35 ms wait below,
    // so beta's drift lands mid-sweep.
    PlaneHarness alpha(dir.path, config, fleet_variants(250));
    PlaneHarness beta(dir.path, config);

    alpha.service.recalibrate_kernel("k");
    EXPECT_EQ(alpha.plane.stats().lease_wins, 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(35));
    // However slow the sweep, its lock holds until it publishes: beta
    // waits instead of sweeping a second time.
    beta.service.recalibrate_kernel("k");
    EXPECT_EQ(beta.plane.stats().lease_losses, 1u);
    EXPECT_TRUE(beta.service.awaiting_adoption("k"));

    ASSERT_TRUE(wait_until([&] {
        return beta.service.metrics().snapshot().adopted_calibrations >= 1;
    }));
    const auto am = alpha.service.metrics().snapshot();
    const auto bm = beta.service.metrics().snapshot();
    EXPECT_EQ(am.recalibrations + bm.recalibrations, 1u);
    EXPECT_EQ(bm.adopted_calibrations, 1u);
    EXPECT_EQ(bm.suppressed_recalibrations, 1u);
    const auto a = alpha.plane.stats();
    const auto b = beta.plane.stats();
    EXPECT_EQ(a.published_calibrations + b.published_calibrations, 1u);
    EXPECT_EQ(a.redundant_recalibrations + b.redundant_recalibrations, 0u);
    EXPECT_EQ(a.takeovers + b.takeovers, 0u);
    EXPECT_FALSE(beta.service.awaiting_adoption("k"));
    EXPECT_EQ(beta.store->fleet_calibration_version(fleet_key()), 1u);

    alpha.stop();
    beta.stop();
}

TEST_F(PlaneTest, FailedSweepReleasesTheLockAndKeepsAdopting)
{
    // The exact variant traps on the drifted inputs, so alpha's won
    // sweep throws (Tuner::calibrate refuses a trapping exact kernel).
    // The recalibration's end must still drop the lock: a stranded lock
    // would make every watch poll skip the kernel, and alpha would never
    // adopt the fleet's next publish.
    TempDir dir("failed");
    PlaneConfig config;
    config.watch_interval = std::chrono::milliseconds(10);
    auto variants = fleet_variants();
    variants[0].run = [exact = variants[0].run](std::uint64_t seed) {
        if (seed < 9000)
            return exact(seed);
        VariantRun run;
        run.trapped = true;
        return run;
    };
    PlaneHarness alpha(dir.path, config, std::move(variants));

    alpha.service.recalibrate_kernel("k", {9001, 9002});
    alpha.service.drain();
    EXPECT_EQ(alpha.plane.stats().lease_wins, 1u);
    EXPECT_EQ(alpha.plane.stats().published_calibrations, 0u);

    // A peer resolves the next drift event; alpha adopts it through its
    // watch thread, with no new drift of its own.
    ASSERT_EQ(publish_as_peer(dir.path), 1u);
    EXPECT_TRUE(wait_until(
        [&] {
            return alpha.service.metrics().snapshot().adopted_calibrations ==
                   1;
        },
        std::chrono::milliseconds(1000)));
    EXPECT_EQ(alpha.service.metrics().snapshot().recalibrations, 1u);

    alpha.stop();
}

TEST_F(PlaneTest, UnlockableStoreRecalibratesLocally)
{
    // The store directory sits below a regular file, so every open()
    // fails (ENOTDIR, even as root).  A plane that cannot lock cannot
    // arbitrate: the drift must recalibrate locally rather than wait
    // for a publish that can never come.
    TempDir dir("unlockable");
    const std::filesystem::path file = dir.path / "file";
    { std::ofstream(file) << "not a directory"; }
    PlaneConfig config;
    config.watch_interval = std::chrono::milliseconds(10);
    PlaneHarness alpha(file / "store", config);

    alpha.service.recalibrate_kernel("k");
    alpha.service.drain();
    const auto metrics = alpha.service.metrics().snapshot();
    EXPECT_EQ(metrics.recalibrations, 1u);
    EXPECT_EQ(metrics.suppressed_recalibrations, 0u);
    EXPECT_FALSE(alpha.service.awaiting_adoption("k"));
    // Polls keep running without re-driving anything.
    const std::uint64_t polls = alpha.plane.stats().watch_polls;
    ASSERT_TRUE(wait_until(
        [&] { return alpha.plane.stats().watch_polls >= polls + 3; }));
    EXPECT_EQ(alpha.plane.stats().takeovers, 0u);
    EXPECT_EQ(alpha.plane.stats().lease_losses, 0u);
    EXPECT_EQ(alpha.service.metrics().snapshot().recalibrations, 1u);

    alpha.stop();
}

TEST_F(PlaneTest, LateJoinerAdoptsTheFleetsCurrentRecord)
{
    // The fleet published a record that benches `good` before this
    // replica started (a warm restart restores the calibration it saved
    // before the drift).  Its first watch poll must install the fleet's
    // record, or it keeps serving the verdicts its peers dropped.
    TempDir dir("late");
    auto artifact = fleet_artifact();
    artifact.quarantined = {"good"};
    ASSERT_EQ(publish_as_peer(dir.path, std::move(artifact)), 1u);

    PlaneConfig config;
    config.watch_interval = std::chrono::milliseconds(10);
    PlaneHarness late(dir.path, config);
    ASSERT_TRUE(wait_until(
        [&] {
            return late.service.metrics().snapshot().adopted_calibrations >=
                   1;
        },
        std::chrono::milliseconds(1000)));
    auto ticket = late.service.submit("k", 42);
    ASSERT_TRUE(ticket.accepted);
    EXPECT_EQ(ticket.response.get().served_by, "exact");

    late.stop();
}

TEST_F(PlaneTest, AdoptionRejectsCountWhenRecordsDoNotFit)
{
    // A published record whose variant inventory does not match the
    // local kernel (module drift across replica builds) must be
    // rejected at adoption, not installed.
    serve::ApproxService service(InProcessReplica::small_config());
    register_fleet_kernel(service);
    auto state = calibrated_state();
    state.profiles[1].label = "renamed";
    EXPECT_FALSE(service.adopt_calibration("k", state, {}));
    EXPECT_EQ(service.metrics().snapshot().adoption_rejects, 1u);

    // A fitting record installs cleanly.
    EXPECT_TRUE(service.adopt_calibration("k", calibrated_state(), {}));
    EXPECT_EQ(service.metrics().snapshot().adopted_calibrations, 1u);
    service.stop();
}

TEST_F(PlaneTest, AdoptedQuarantineOpensLocalBreaker)
{
    serve::ApproxService service(InProcessReplica::small_config());
    register_fleet_kernel(service);

    ASSERT_TRUE(
        service.adopt_calibration("k", calibrated_state(), {"good"}));
    const auto snapshot = service.kernel_snapshot("k");
    bool found = false;
    for (const auto& breaker : snapshot.breakers) {
        if (breaker.label == "good") {
            found = true;
            EXPECT_NE(breaker.state, runtime::BreakerState::Closed);
        }
    }
    EXPECT_TRUE(found);
    // With its only approximation quarantined fleet-wide, the kernel
    // serves exact.
    auto ticket = service.submit("k", 42);
    ASSERT_TRUE(ticket.accepted);
    EXPECT_EQ(ticket.response.get().served_by, "exact");
    service.stop();
}

// ---- ReplicaServer stats ---------------------------------------------------

TEST_F(ReplicaTest, StatsReplyMirrorsServiceAndPlaneCounters)
{
    TempDir dir("stats");
    PlaneHarness alpha(dir.path);
    ReplicaServer server(alpha.service, &alpha.plane,
                         {"alpha", (dir.path / "a.sock").string()});
    ASSERT_TRUE(server.start());
    FrontDoor door({{"alpha", server.socket_path()}});
    ASSERT_TRUE(door.start());

    // Traffic, an unknown kernel and a drift event move service and
    // plane counters off zero.
    for (int i = 0; i < 8; ++i) {
        SubmitRequest request;
        request.kernel = "k";
        request.input = SubmitRequest::seed_input(i);
        EXPECT_EQ(door.route(std::move(request)).status, WireStatus::Ok);
    }
    SubmitRequest unknown;
    unknown.kernel = "nope";
    unknown.input = SubmitRequest::seed_input(0);
    EXPECT_EQ(door.route(std::move(unknown)).status, WireStatus::Rejected);
    DriftRequest drift;
    drift.kernel = "k";
    ASSERT_TRUE(
        door.call(0, MsgType::DriftRequest, drift.encode()).has_value());
    // Quiesce: the recalibration and its publish finish, one watch poll
    // runs, and the watch thread stops, so nothing moves between the
    // wire read and the local reads below.
    alpha.service.drain();
    alpha.plane.poll_now();
    alpha.plane.stop();

    const auto stats = door.replica_stats(0);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->replica, "alpha");
    const serve::MetricsSnapshot metrics =
        alpha.service.metrics().snapshot();
    const PlaneStats plane = alpha.plane.stats();
#define PARAPROX_FROM_METRICS(type, name)                                     \
    EXPECT_EQ(stats->name, metrics.name) << #name;
    PARAPROX_SERVE_COUNTERS(PARAPROX_FROM_METRICS)
#undef PARAPROX_FROM_METRICS
#define PARAPROX_FROM_PLANE(type, name)                                       \
    EXPECT_EQ(stats->name, plane.name) << #name;
    PARAPROX_PLANE_COUNTERS(PARAPROX_FROM_PLANE)
#undef PARAPROX_FROM_PLANE
    EXPECT_EQ(stats->served, 8u);
    EXPECT_EQ(stats->rejected_unknown, 1u);
    EXPECT_EQ(stats->recalibrations, 1u);
    EXPECT_EQ(stats->lease_wins, 1u);
    EXPECT_EQ(stats->published_calibrations, 1u);
    EXPECT_GE(stats->watch_polls, 1u);

    door.stop();
    server.stop();
    alpha.stop();
}

// ---- Chaos: kill a replica mid-drift ---------------------------------------

TEST_F(ChaosScaleoutTest, KilledReplicaMidDriftLosesNoRequests)
{
    TempDir dir("chaos");

    PlaneConfig config;
    config.watch_interval = std::chrono::milliseconds(10);
    // Alpha's re-profiling sweep sleeps, so the abort below lands
    // mid-drift, with the lock held.
    PlaneHarness alpha(dir.path, config, fleet_variants(30));
    PlaneHarness beta(dir.path, config);

    ReplicaServer alpha_server(alpha.service, &alpha.plane,
                               {"alpha", (dir.path / "a.sock").string()});
    ReplicaServer beta_server(beta.service, &beta.plane,
                              {"beta", (dir.path / "b.sock").string()});
    ASSERT_TRUE(alpha_server.start());
    ASSERT_TRUE(beta_server.start());

    FrontDoor door({{"alpha", alpha_server.socket_path()},
                    {"beta", beta_server.socket_path()}});
    ASSERT_TRUE(door.start());

    // Armed chaos (after registration, so calibration stays clean): one
    // of alpha's replies is dropped on the wire, and the approximate
    // variant traps occasionally.
    std::vector<fault::FaultSpec> specs;
    fault::FaultSpec drop;
    drop.site = "net.drop";
    drop.match = "replica:alpha";
    drop.every = 3;
    drop.limit = 1;
    specs.push_back(drop);
    fault::FaultSpec trap;
    trap.site = "vm.trap";
    trap.match = "good";
    trap.every = 5;
    trap.limit = 2;
    specs.push_back(trap);
    fault::FaultInjector::instance().arm(specs);

    // Concurrent client load throughout the kill.
    constexpr int kClients = 3;
    constexpr int kPerClient = 12;
    std::atomic<int> terminal{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                SubmitRequest request;
                request.kernel = "k";
                request.input = SubmitRequest::seed_input(
                    static_cast<std::uint64_t>(c) * 1000 + i);
                const SubmitReply reply = door.route(std::move(request));
                if (reply.status == WireStatus::Ok ||
                    reply.status == WireStatus::DeadlineExceeded ||
                    reply.status == WireStatus::Rejected)
                    terminal.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        });
    }

    // Drift lands fleet-wide; alpha takes the lock (beta's gate runs
    // after alpha's sweep started) and is killed mid-sweep.
    alpha.service.recalibrate_kernel("k");
    EXPECT_EQ(alpha.plane.stats().lease_wins, 1u);
    beta.service.recalibrate_kernel("k");
    alpha_server.abort();

    for (auto& client : clients)
        client.join();

    // Zero silent losses: every admitted request resolved terminally.
    EXPECT_EQ(terminal.load(), kClients * kPerClient);
    const auto door_stats = door.stats();
    EXPECT_EQ(door_stats.requests,
              static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_EQ(door_stats.rejected_no_replica, 0u);
    EXPECT_FALSE(door.replica_alive(0));

    // The drift event still resolves fleet-wide: alpha's publish lands
    // (only its sockets were killed, not its service, so it still holds
    // the lock through its sweep) and beta adopts it.
    ASSERT_TRUE(wait_until([&] {
        return alpha.plane.stats().published_calibrations +
                   beta.plane.stats().published_calibrations >=
               1;
    }));
    ASSERT_TRUE(wait_until([&] {
        const auto am = alpha.service.metrics().snapshot();
        const auto bm = beta.service.metrics().snapshot();
        return am.adopted_calibrations + am.recalibrations >= 1 &&
               bm.adopted_calibrations + bm.recalibrations +
                       bm.suppressed_recalibrations >=
                   1;
    }));

    door.stop();
    alpha_server.stop();
    beta_server.stop();
    alpha.stop();
    beta.stop();
}

// ---- Health protocol (Ping/Pong) -------------------------------------------

TEST_F(HealthTest, PingPongRoundtrip)
{
    Ping ping;
    ping.nonce = 0xfeedfacecafeull;
    const auto decoded_ping = Ping::decode(ping.encode());
    ASSERT_TRUE(decoded_ping.has_value());
    EXPECT_EQ(decoded_ping->version, kHealthVersion);
    EXPECT_EQ(decoded_ping->nonce, 0xfeedfacecafeull);

    Pong pong;
    pong.nonce = 42;
    pong.replica = "alpha";
    pong.uptime_ms = 12345;
    const auto decoded_pong = Pong::decode(pong.encode());
    ASSERT_TRUE(decoded_pong.has_value());
    EXPECT_EQ(decoded_pong->version, kHealthVersion);
    EXPECT_EQ(decoded_pong->nonce, 42u);
    EXPECT_EQ(decoded_pong->replica, "alpha");
    EXPECT_EQ(decoded_pong->uptime_ms, 12345u);
}

TEST_F(HealthTest, HealthDecodersRejectGarbageAndTruncation)
{
    // Truncation at every prefix must reject, never crash or misparse —
    // the same matrix the request/reply codecs pass.
    Ping ping;
    ping.nonce = 7;
    expect_prefixes_rejected(ping);
    Pong pong;
    pong.nonce = 7;
    pong.replica = "r";
    expect_prefixes_rejected(pong);
    EXPECT_FALSE(Ping::decode({0xff, 0xff}).has_value());
    EXPECT_FALSE(Pong::decode({}).has_value());
}

TEST_F(HealthTest, ReplicaAnswersPingWithMatchingNonce)
{
    TempDir dir("ping");
    InProcessReplica alpha("alpha", (dir.path / "a.sock").string());
    ASSERT_TRUE(alpha.server.start());

    Socket client = connect_unix(alpha.server.socket_path());
    ASSERT_TRUE(client.valid());
    Ping ping;
    ping.nonce = 99;
    ASSERT_TRUE(send_frame(client, MsgType::Ping, ping.encode()));
    const auto frame = recv_frame(client);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Pong);
    const auto pong = Pong::decode(frame->payload);
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->version, kHealthVersion);
    EXPECT_EQ(pong->nonce, 99u);
    EXPECT_EQ(pong->replica, "alpha");

    alpha.server.stop();
    alpha.service.stop();
}

TEST_F(HealthTest, ReplicaDropsUnknownVersionHealthFrames)
{
    // A future-versioned Ping must not elicit a guessed answer: the
    // replica drops the connection, which the prober reads as "not
    // healthy" — fail closed, never fail wrong.
    TempDir dir("badping");
    InProcessReplica alpha("alpha", (dir.path / "a.sock").string());
    ASSERT_TRUE(alpha.server.start());

    Socket client = connect_unix(alpha.server.socket_path());
    ASSERT_TRUE(client.valid());
    Ping ping;
    ping.version = kHealthVersion + 1;
    ping.nonce = 5;
    ASSERT_TRUE(send_frame(client, MsgType::Ping, ping.encode()));
    EXPECT_FALSE(recv_frame(client).has_value());

    // The server itself is unharmed: a well-formed Ping on a fresh
    // connection still answers.
    Socket second = connect_unix(alpha.server.socket_path());
    ASSERT_TRUE(second.valid());
    Ping good;
    good.nonce = 6;
    ASSERT_TRUE(send_frame(second, MsgType::Ping, good.encode()));
    const auto frame = recv_frame(second);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Pong);

    alpha.server.stop();
    alpha.service.stop();
}

// ---- Supervisor -------------------------------------------------------------

/// Forked children for supervisor tests only touch async-signal-safe
/// calls (pause/_exit): the parent is a threaded gtest process, so the
/// child must never take a lock it might have inherited mid-held.
pid_t
fork_sleeper()
{
    const pid_t pid = fork();
    if (pid == 0) {
        for (;;)
            pause();
    }
    return pid;
}

pid_t
fork_instant_crash()
{
    const pid_t pid = fork();
    if (pid == 0)
        _exit(7);
    return pid;
}

SupervisorConfig
fast_supervisor()
{
    SupervisorConfig config;
    config.tick = std::chrono::milliseconds(5);
    config.initial_backoff = std::chrono::milliseconds(10);
    config.max_backoff = std::chrono::milliseconds(50);
    // No probing unless a test opts in: the slots have no real sockets.
    config.probe_interval = std::chrono::hours(1);
    config.startup_grace = std::chrono::hours(1);
    return config;
}

TEST_F(SupervisorTest, RestartsAKilledChildWithBackoff)
{
    Supervisor::install_sigchld();
    std::atomic<int> spawned{0};
    Supervisor supervisor(
        {{"w0", "/nonexistent.sock"}},
        [&spawned](const SupervisedReplica&) {
            spawned.fetch_add(1);
            return fork_sleeper();
        },
        fast_supervisor());
    supervisor.start();
    ASSERT_TRUE(wait_until([&] { return supervisor.stats().spawns >= 1; }));

    ASSERT_TRUE(supervisor.kill_slot(0, SIGKILL));
    // Reap -> backoff -> respawn, all without the owner lifting a finger.
    ASSERT_TRUE(wait_until([&] {
        const auto stats = supervisor.stats();
        return stats.reaps >= 1 && stats.restarts >= 1;
    }));
    ASSERT_TRUE(wait_until([&] {
        const auto slots = supervisor.snapshot();
        return slots.size() == 1 && slots[0].up;
    }));
    EXPECT_EQ(supervisor.stats().quarantined, 0u);
    EXPECT_GE(spawned.load(), 2);

    // Cleanup: drain mode keeps the supervisor from resurrecting the
    // child we are about to kill for good.
    supervisor.quiesce();
    const auto slots = supervisor.snapshot();
    ASSERT_TRUE(slots[0].up);
    ASSERT_TRUE(supervisor.kill_slot(0, SIGKILL));
    ASSERT_TRUE(
        wait_until([&] { return !supervisor.snapshot()[0].up; }));
    supervisor.stop();
}

TEST_F(SupervisorTest, CrashLoopLandsInQuarantine)
{
    Supervisor::install_sigchld();
    SupervisorConfig config = fast_supervisor();
    config.fast_crash_window = std::chrono::seconds(5);
    config.quarantine_after = 3;
    Supervisor supervisor(
        {{"w0", "/nonexistent.sock"}},
        [](const SupervisedReplica&) { return fork_instant_crash(); },
        config);
    supervisor.start();

    // Every exec dies on arrival: after quarantine_after consecutive
    // fast crashes the supervisor must stop feeding it.
    ASSERT_TRUE(
        wait_until([&] { return supervisor.stats().quarantined >= 1; }));
    const auto slots = supervisor.snapshot();
    ASSERT_EQ(slots.size(), 1u);
    EXPECT_TRUE(slots[0].quarantined);
    EXPECT_FALSE(slots[0].up);
    // Quarantined slots don't gate fleet health: the fleet runs degraded
    // rather than reporting itself broken forever.
    EXPECT_TRUE(supervisor.all_healthy());

    // The crash loop is over: no further spawns arrive.
    const std::uint64_t spawns = supervisor.stats().spawns;
    EXPECT_EQ(spawns, static_cast<std::uint64_t>(config.quarantine_after));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(supervisor.stats().spawns, spawns);
    supervisor.stop();
}

TEST_F(SupervisorTest, UnresponsiveChildIsKilledAndRestarted)
{
    Supervisor::install_sigchld();
    SupervisorConfig config = fast_supervisor();
    // Probing armed and aggressive: the slot's socket path does not
    // exist, so every probe fails; past the grace window the supervisor
    // must escalate to SIGKILL and run the ordinary restart path.
    config.probe_interval = std::chrono::milliseconds(10);
    config.probe_timeout = std::chrono::milliseconds(50);
    config.startup_grace = std::chrono::milliseconds(20);
    config.unresponsive_threshold = 2;
    Supervisor supervisor(
        {{"w0", "/nonexistent.sock"}},
        [](const SupervisedReplica&) { return fork_sleeper(); },
        config);
    supervisor.start();

    ASSERT_TRUE(wait_until([&] {
        const auto stats = supervisor.stats();
        return stats.kills >= 1 && stats.restarts >= 1;
    }));
    EXPECT_GE(supervisor.stats().failed_probes, 2u);

    supervisor.quiesce();
    if (supervisor.snapshot()[0].up) {
        supervisor.kill_slot(0, SIGKILL);
        wait_until([&] { return !supervisor.snapshot()[0].up; });
    }
    supervisor.stop();
}

// ---- Chaos: kill-and-hang storm --------------------------------------------

/// Two identically-computing kernels so vm.hang (which matches on kernel
/// name) wedges only the approximate variant; the exact fallback stays
/// healthy.  Mirrors chaos_test's cancellation fixture.
constexpr const char* kStormKernels = R"(
    __kernel void exact_k(__global float* out, int rounds) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int j = 0; j < rounds; j++) { acc += sqrtf((float)(j + i)); }
        out[i] = acc;
    }
    __kernel void approx_k(__global float* out, int rounds) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int j = 0; j < rounds; j++) { acc += sqrtf((float)(j + i)); }
        out[i] = acc;
    }
)";

runtime::Variant
storm_variant(std::shared_ptr<vm::Program> program,
              const std::string& label, int aggressiveness, double cycles)
{
    return {label, aggressiveness,
            [program, cycles](std::uint64_t seed) {
                constexpr int kItems = 256;
                exec::Buffer out = exec::Buffer::zeros_f32(kItems);
                exec::ArgPack args;
                args.buffer("out", out)
                    .scalar("rounds", static_cast<int>(seed % 7 + 20));
                runtime::VariantRun run = runtime::run_fast_unpriced(
                    *program, args, exec::LaunchConfig::linear(kItems, 32));
                if (!run.trapped && !run.cancelled)
                    runtime::attach_output(run, out);
                run.modeled_cycles = cycles;
                return run;
            }};
}

/// An in-process replica whose service runs VM-backed variants under an
/// armed watchdog: vm.hang can wedge its launches, and the watchdog (not
/// the test) is what shoots them.
struct StormReplica {
    serve::ApproxService service;
    ReplicaServer server;

    StormReplica(const std::string& id, const std::string& socket_path)
        : service(storm_config()), server(service, nullptr,
                                          {id, socket_path})
    {
        auto module = parser::parse_module(kStormKernels);
        auto exact = std::make_shared<vm::Program>(
            vm::compile_kernel(module, "exact_k"));
        auto approx = std::make_shared<vm::Program>(
            vm::compile_kernel(module, "approx_k"));
        std::vector<Variant> variants;
        variants.push_back(storm_variant(exact, "exact", 0, 1000.0));
        variants.push_back(storm_variant(approx, "approx_k", 1, 100.0));
        service.register_kernel("k", std::move(variants),
                                Metric::MeanRelativeError, 90.0,
                                {1, 2, 3});
    }

    static serve::ServiceConfig storm_config()
    {
        serve::ServiceConfig config;
        config.num_workers = 2;
        config.queue_capacity = 64;
        config.watchdog.tick = std::chrono::milliseconds(1);
        config.watchdog.hang_floor = std::chrono::milliseconds(50);
        // One hang convicts, and the cooldown outlives the test: the
        // wedged variant stays quarantined for the assertions.
        config.quarantine = {/*failure_threshold=*/1,
                             /*failure_window=*/64,
                             /*cooldown=*/1u << 20,
                             /*cooldown_growth=*/2.0,
                             /*max_cooldown=*/1u << 20,
                             /*probe_quota=*/1};
        return config;
    }
};

TEST_F(ChaosScaleoutTest, KillAndHangStormResolvesEverythingAndRestores)
{
    TempDir dir("storm");
    StormReplica alpha("alpha", (dir.path / "a.sock").string());
    StormReplica beta("beta", (dir.path / "b.sock").string());
    ASSERT_TRUE(alpha.server.start());
    ASSERT_TRUE(beta.server.start());
    ASSERT_EQ(alpha.service.kernel_snapshot("k").selected, "approx_k");

    FrontDoor door({{"alpha", alpha.server.socket_path()},
                    {"beta", beta.server.socket_path()}});
    ASSERT_TRUE(door.start());

    // The storm: one launch somewhere wedges on vm.hang (the watchdog
    // must shoot it), one of alpha's replies dies on the wire, and then
    // alpha's sockets are killed outright mid-load.
    std::vector<fault::FaultSpec> specs;
    fault::FaultSpec hang;
    hang.site = "vm.hang";
    hang.match = "approx_k";
    hang.every = 1;
    hang.limit = 1;
    specs.push_back(hang);
    fault::FaultSpec drop;
    drop.site = "net.drop";
    drop.match = "replica:alpha";
    drop.every = 5;
    drop.limit = 1;
    specs.push_back(drop);
    fault::FaultInjector::instance().arm(specs);

    constexpr int kClients = 3;
    constexpr int kPerClient = 12;
    std::atomic<int> terminal{0};
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                SubmitRequest request;
                request.kernel = "k";
                request.input = SubmitRequest::seed_input(
                    static_cast<std::uint64_t>(c) * 100 + i);
                const SubmitReply reply = door.route(std::move(request));
                if (reply.status == WireStatus::Ok)
                    ok.fetch_add(1);
                if (reply.status == WireStatus::Ok ||
                    reply.status == WireStatus::DeadlineExceeded ||
                    reply.status == WireStatus::Rejected)
                    terminal.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    alpha.server.abort();  // kill -9, as the wire sees it.
    for (auto& client : clients)
        client.join();

    // Zero unresolved: every admitted request came back exactly once.
    EXPECT_EQ(terminal.load(), kClients * kPerClient);
    EXPECT_EQ(ok.load(), kClients * kPerClient);
    const auto mid_stats = door.stats();
    EXPECT_EQ(mid_stats.requests,
              static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_EQ(mid_stats.rejected_no_replica, 0u);
    EXPECT_FALSE(door.replica_alive(0));

    // The wedged launch was shot by a watchdog, its variant quarantined,
    // and the request it carried re-served exact.  (The hang may have
    // landed on a request whose reply was then lost to the wire — the
    // metrics land slightly after the client's retried copy resolves.)
    EXPECT_TRUE(wait_until(
        [&] {
            // Full snapshots: the quarantine counter is aggregated from
            // the tuners, which a bare metrics().snapshot() does not do.
            const auto am = alpha.service.snapshot().metrics;
            const auto bm = beta.service.snapshot().metrics;
            return am.watchdog_cancels + bm.watchdog_cancels >= 1 &&
                   am.watchdog_fallbacks + bm.watchdog_fallbacks >= 1 &&
                   am.quarantines + bm.quarantines >= 1;
        },
        // Generous: the hang fires after the 50ms watchdog floor plus
        // the exact re-serve, which sanitizer builds stretch ~20x.
        std::chrono::milliseconds(30000)));
    EXPECT_GE(fault::FaultInjector::instance().fires("vm.hang"), 1u);

    // The storm has passed: stand down the faults so an unconsumed
    // net.drop (alpha may have died before its 5th send) cannot shoot
    // the revived replica's first reply.
    fault::FaultInjector::instance().disarm();

    // Restore the fleet the way the supervisor does: a fresh server
    // process over the same (healthy) service, then revive the slot.
    alpha.server.stop();
    ReplicaServer revived(alpha.service, nullptr,
                          {"alpha", (dir.path / "a.sock").string()});
    ASSERT_TRUE(revived.start());
    door.revive(0);
    EXPECT_TRUE(door.replica_alive(0));

    const std::uint64_t routed_before = door.stats().routed[0];
    int ok_after = 0;
    for (int i = 0; i < 8; ++i) {
        SubmitRequest request;
        request.kernel = "k";
        request.input = SubmitRequest::seed_input(500 + i);
        if (door.route(std::move(request)).status == WireStatus::Ok)
            ++ok_after;
    }
    EXPECT_EQ(ok_after, 8);
    // Full strength: the revived replica is taking traffic again.
    EXPECT_TRUE(door.replica_alive(0));
    EXPECT_GT(door.stats().routed[0], routed_before);

    door.stop();
    revived.stop();
    beta.server.stop();
    alpha.service.stop();
    beta.service.stop();
}

}  // namespace
}  // namespace paraprox::net
