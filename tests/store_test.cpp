// Tests for the on-disk artifact store: byte-exact round trips for
// programs, tables and every shape of calibration record, corruption
// (truncation, bit flips, version bumps, key-echo mismatches, hostile
// sections) degrading to a plain miss without crashing, and the
// warm-start path selecting the same variant a cold calibration does
// while skipping compilation, table search, and the profiling sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "device/memory_model.h"
#include "memo/table.h"
#include "parser/parser.h"
#include "runtime/session.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "store/format.h"
#include "support/rng.h"
#include "support/temp_dir.h"
#include "vm/program_cache.h"

namespace paraprox::store {
namespace {

using support::TempDir;

StoreKey
test_key(const std::string& detail)
{
    StoreKey key;
    key.module_fingerprint = 0x0123456789abcdefull;
    key.kernel = "apply";
    key.device = "GTX560";
    key.toq = 90.0;
    key.detail = detail;
    return key;
}

vm::Program
sample_program()
{
    vm::Program program;
    program.kernel_name = "apply";
    program.num_regs = 8;
    program.has_barrier = true;
    program.code = {
        {vm::Opcode::Gid, 0, 0, 0, 0, vm::make_int(0)},
        {vm::Opcode::Ld, 1, 0, 0, 0, vm::make_int(0)},
        {vm::Opcode::AddF, 2, 1, 1, 0, vm::make_float(0.0f)},
        {vm::Opcode::LdImm, 3, 0, 0, 0, vm::make_float(1.5f)},
        {vm::Opcode::St, 0, 2, 0, 0, vm::make_int(1)},
        {vm::Opcode::Halt, 0, 0, 0, 0, vm::make_int(0)},
    };
    program.fast_code = {
        {vm::Opcode::Gid, 0, 0, 0, 0, vm::make_int(0)},
        {vm::Opcode::LdAddF, 2, 0, 1, 1, vm::make_int(0)},
        {vm::Opcode::Halt, 0, 0, 0, 0, vm::make_int(0)},
    };
    program.buffers = {{"in", ir::Scalar::F32, ir::AddrSpace::Global},
                       {"out", ir::Scalar::F32, ir::AddrSpace::Global},
                       {"lut", ir::Scalar::F32, ir::AddrSpace::Constant}};
    program.scalars = {{"n", ir::Scalar::I32, 3},
                       {"scale", ir::Scalar::F32, 4}};
    return program;
}

void
expect_instr_eq(const vm::Instr& a, const vm::Instr& b)
{
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.c, b.c);
    EXPECT_EQ(a.d, b.d);
    EXPECT_EQ(a.imm.i, b.imm.i);  // Bit compare via the int view.
}

void
expect_program_eq(const vm::Program& a, const vm::Program& b)
{
    EXPECT_EQ(a.kernel_name, b.kernel_name);
    EXPECT_EQ(a.num_regs, b.num_regs);
    EXPECT_EQ(a.has_barrier, b.has_barrier);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i)
        expect_instr_eq(a.code[i], b.code[i]);
    ASSERT_EQ(a.fast_code.size(), b.fast_code.size());
    for (std::size_t i = 0; i < a.fast_code.size(); ++i)
        expect_instr_eq(a.fast_code[i], b.fast_code[i]);
    ASSERT_EQ(a.buffers.size(), b.buffers.size());
    for (std::size_t i = 0; i < a.buffers.size(); ++i) {
        EXPECT_EQ(a.buffers[i].name, b.buffers[i].name);
        EXPECT_EQ(a.buffers[i].elem, b.buffers[i].elem);
        EXPECT_EQ(a.buffers[i].space, b.buffers[i].space);
    }
    ASSERT_EQ(a.scalars.size(), b.scalars.size());
    for (std::size_t i = 0; i < a.scalars.size(); ++i) {
        EXPECT_EQ(a.scalars[i].name, b.scalars[i].name);
        EXPECT_EQ(a.scalars[i].scalar, b.scalars[i].scalar);
        EXPECT_EQ(a.scalars[i].reg, b.scalars[i].reg);
    }
}

memo::LookupTable
sample_table()
{
    memo::LookupTable table;
    memo::InputQuant x;
    x.name = "x";
    x.lo = -4.0f;
    x.hi = 4.0f;
    x.bits = 3;
    memo::InputQuant r;
    r.name = "r";
    r.is_constant = true;
    r.constant_value = 0.25f;
    table.config.inputs = {x, r};
    table.tuned_quality = 97.5;
    table.values.resize(static_cast<std::size_t>(table.config.table_size()));
    for (std::size_t i = 0; i < table.values.size(); ++i)
        table.values[i] = static_cast<float>(i) * 0.5f - 1.0f;
    return table;
}

runtime::CalibrationState
sample_calibration()
{
    runtime::CalibrationState calibration;
    calibration.profiles = {
        {"exact", 1.0, 1.0, 100.0, true, false},
        {"memo8", 3.5, 2.1, 96.25, true, false},
        {"memo4", 7.25, 0.8, 81.0, false, false, true},
        {"memo2", 0.0, 0.0, 0.0, false, true},
    };
    calibration.fallback_order = {1, 0};
    calibration.selected = 1;
    return calibration;
}

/// A plain kernel family's record: no section.
CalibrationRecord
sample_record()
{
    CalibrationRecord record;
    record.calibration = sample_calibration();
    record.toq = 90.0;
    record.metric = "Mean relative error";
    return record;
}

/// A pipeline's record: one joint config per profile, all-exact first.
CalibrationRecord
sample_pipeline_calibration()
{
    CalibrationRecord record = sample_record();
    record.stage_names = {"blur", "sobel"};
    record.configs = {{"exact", "exact"},
                      {"stencil row rd=1", "exact"},
                      {"exact", "stencil row rd=1"},
                      {"stencil row rd=1", "stencil row rd=1"}};
    return record;
}

CalibrationRecord
sample_precision_calibration()
{
    // Plans must be index-aligned with the calibration profiles and lead
    // with the all-exact plan (the decoder rejects anything else).
    CalibrationRecord record = sample_record();
    data::PrecisionPlan exact;
    exact.label = "exact";
    data::PrecisionPlan uniform;
    uniform.label = "data[all:bf16]";
    uniform.assignments.push_back({"in", data::Codec::Bf16, {}});
    uniform.assignments.push_back({"out", data::Codec::Bf16, {}});
    data::PrecisionPlan quantized;
    quantized.label = "data[in:int8]";
    quantized.assignments.push_back(
        {"in", data::Codec::Int8, {0.25f, -3.0f}});
    data::PrecisionPlan narrow;
    narrow.label = "data[out:fp24]";
    narrow.assignments.push_back({"out", data::Codec::Fp24, {}});
    record.plans = {exact, uniform, quantized, narrow};
    return record;
}

void
rewrite_file(const std::filesystem::path& path,
             const std::vector<std::uint8_t>& bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
}

/// The corruption matrix over one calibration record: truncation at
/// every stratum, bit flips across the record, and pure garbage must
/// each read as a counted miss, never a crash or a partial decode.
void
expect_corruption_is_miss(const ArtifactStore& store, const StoreKey& key,
                          const CalibrationRecord& record)
{
    ASSERT_TRUE(store.save_calibration(key, record));
    ASSERT_TRUE(store.load_calibration(key).has_value());
    const auto path = store.path_for(key, ArtifactKind::Calibration);
    const auto pristine = read_file_bytes(path);
    ASSERT_TRUE(pristine.has_value());
    const std::uint64_t rejects_before = store.stats().corrupt_rejects;

    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{31},
          pristine->size() / 2, pristine->size() - 1}) {
        auto truncated = *pristine;
        truncated.resize(keep);
        rewrite_file(path, truncated);
        EXPECT_FALSE(store.load_calibration(key).has_value())
            << "truncated to " << keep;
    }
    for (const std::size_t offset :
         {std::size_t{0}, std::size_t{9}, std::size_t{17}, std::size_t{40},
          pristine->size() / 2, pristine->size() - 1}) {
        auto corrupted = *pristine;
        corrupted[offset] ^= 0x20;
        rewrite_file(path, corrupted);
        EXPECT_FALSE(store.load_calibration(key).has_value())
            << "bit flip at " << offset;
    }
    Rng rng(23);
    for (const std::size_t size :
         {std::size_t{1}, std::size_t{33}, std::size_t{512}}) {
        std::vector<std::uint8_t> junk(size);
        for (auto& byte : junk)
            byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        rewrite_file(path, junk);
        EXPECT_FALSE(store.load_calibration(key).has_value())
            << size << " bytes of garbage";
    }
    EXPECT_GT(store.stats().corrupt_rejects, rejects_before);
}

/// A structurally plausible, correctly framed @p record must still be
/// refused by the decoder.
void
expect_rejected(const ArtifactStore& store, const StoreKey& key,
                const CalibrationRecord& record)
{
    ASSERT_TRUE(store.save_calibration(key, record));
    EXPECT_FALSE(store.load_calibration(key).has_value());
}

// ---- Round trips ------------------------------------------------------------

TEST(StoreTest, ProgramRoundTrip)
{
    const TempDir dir("store-program-roundtrip");
    const ArtifactStore store(dir.path);
    const StoreKey key = program_key(42, "apply");
    const vm::Program original = sample_program();
    ASSERT_TRUE(store.save_program(key, original));

    const auto loaded = store.load_program(key);
    ASSERT_TRUE(loaded.has_value());
    expect_program_eq(original, *loaded);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 0u);
}

TEST(StoreTest, TableRoundTrip)
{
    const TempDir dir("store-table-roundtrip");
    const ArtifactStore store(dir.path);
    const StoreKey key = test_key("memo:f#0");
    const memo::LookupTable original = sample_table();
    ASSERT_TRUE(store.save_table(key, original));

    const auto loaded = store.load_table(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->values, original.values);
    EXPECT_DOUBLE_EQ(loaded->tuned_quality, original.tuned_quality);
    ASSERT_EQ(loaded->config.inputs.size(), original.config.inputs.size());
    for (std::size_t i = 0; i < original.config.inputs.size(); ++i) {
        const auto& want = original.config.inputs[i];
        const auto& got = loaded->config.inputs[i];
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.lo, want.lo);
        EXPECT_EQ(got.hi, want.hi);
        EXPECT_EQ(got.bits, want.bits);
        EXPECT_EQ(got.is_constant, want.is_constant);
        EXPECT_EQ(got.constant_value, want.constant_value);
    }
    EXPECT_EQ(loaded->config.address_bits(),
              original.config.address_bits());
}

TEST(StoreTest, CalibrationRoundTrip)
{
    const TempDir dir("store-calibration-roundtrip");
    const ArtifactStore store(dir.path);
    StoreKey key = test_key("calibration");
    key.metric = "Mean relative error";
    const CalibrationRecord original = sample_record();
    ASSERT_TRUE(store.save_calibration(key, original));

    const auto loaded = store.load_calibration(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(loaded->toq, original.toq);
    EXPECT_EQ(loaded->metric, original.metric);
    EXPECT_TRUE(loaded->stage_names.empty());
    EXPECT_TRUE(loaded->configs.empty());
    EXPECT_TRUE(loaded->plans.empty());
    const auto& want_state = original.calibration;
    const auto& got_state = loaded->calibration;
    EXPECT_EQ(got_state.fallback_order, want_state.fallback_order);
    EXPECT_EQ(got_state.selected, want_state.selected);
    ASSERT_EQ(got_state.profiles.size(), want_state.profiles.size());
    for (std::size_t i = 0; i < want_state.profiles.size(); ++i) {
        const auto& want = want_state.profiles[i];
        const auto& got = got_state.profiles[i];
        EXPECT_EQ(got.label, want.label);
        EXPECT_DOUBLE_EQ(got.speedup, want.speedup);
        EXPECT_DOUBLE_EQ(got.wall_speedup, want.wall_speedup);
        EXPECT_DOUBLE_EQ(got.quality, want.quality);
        EXPECT_EQ(got.meets_toq, want.meets_toq);
        EXPECT_EQ(got.trapped, want.trapped);
        EXPECT_EQ(got.slower_than_exact, want.slower_than_exact);
    }

    // The pipeline section round-trips under the same record kind.
    const CalibrationRecord pipeline = sample_pipeline_calibration();
    ASSERT_TRUE(store.save_calibration(key, pipeline));
    const auto joint = store.load_calibration(key);
    ASSERT_TRUE(joint.has_value());
    EXPECT_EQ(joint->stage_names, pipeline.stage_names);
    EXPECT_EQ(joint->configs, pipeline.configs);
    EXPECT_TRUE(joint->plans.empty());
}

TEST(StoreTest, PrecisionCalibrationRoundTrip)
{
    const TempDir dir("store-precision-roundtrip");
    const ArtifactStore store(dir.path);
    StoreKey key = test_key("data-tier");
    key.metric = "Mean relative error";
    const CalibrationRecord original = sample_precision_calibration();
    ASSERT_TRUE(store.save_calibration(key, original));

    const auto loaded = store.load_calibration(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(loaded->toq, original.toq);
    EXPECT_EQ(loaded->metric, original.metric);
    EXPECT_EQ(loaded->calibration.selected,
              original.calibration.selected);
    EXPECT_EQ(loaded->calibration.fallback_order,
              original.calibration.fallback_order);
    ASSERT_EQ(loaded->plans.size(), original.plans.size());
    for (std::size_t i = 0; i < original.plans.size(); ++i) {
        const auto& want = original.plans[i];
        const auto& got = loaded->plans[i];
        EXPECT_EQ(got.label, want.label);
        ASSERT_EQ(got.assignments.size(), want.assignments.size());
        for (std::size_t a = 0; a < want.assignments.size(); ++a) {
            EXPECT_EQ(got.assignments[a].buffer, want.assignments[a].buffer);
            EXPECT_EQ(got.assignments[a].codec, want.assignments[a].codec);
            EXPECT_FLOAT_EQ(got.assignments[a].quant.scale,
                            want.assignments[a].quant.scale);
            EXPECT_FLOAT_EQ(got.assignments[a].quant.zero,
                            want.assignments[a].quant.zero);
        }
    }
    EXPECT_TRUE(loaded->plans.front().all_exact());
}

// ---- Corruption degrades to a miss ------------------------------------------

TEST(StoreTest, MissingFileIsMiss)
{
    const TempDir dir("store-missing");
    const ArtifactStore store(dir.path);
    EXPECT_FALSE(store.load_table(test_key("memo:f#0")).has_value());
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().corrupt_rejects, 0u);
}

TEST(StoreTest, TruncatedFileIsMiss)
{
    const TempDir dir("store-truncated");
    const ArtifactStore store(dir.path);
    const StoreKey key = test_key("memo:f#0");
    ASSERT_TRUE(store.save_table(key, sample_table()));
    const auto path = store.path_for(key, ArtifactKind::Table);
    const auto full_size = std::filesystem::file_size(path);

    // Every truncation point — mid-header, mid-payload, one byte short —
    // must read as a miss, never a crash or a partial decode.
    for (const std::uintmax_t keep :
         {std::uintmax_t{0}, std::uintmax_t{5}, std::uintmax_t{31},
          full_size / 2, full_size - 1}) {
        std::filesystem::resize_file(path, keep);
        EXPECT_FALSE(store.load_table(key).has_value())
            << "truncated to " << keep << " bytes";
    }
    EXPECT_GT(store.stats().corrupt_rejects, 0u);
}

TEST(StoreTest, BitFlippedFileIsMiss)
{
    const TempDir dir("store-bitflip");
    const ArtifactStore store(dir.path);
    const StoreKey key = test_key("memo:f#0");
    ASSERT_TRUE(store.save_table(key, sample_table()));
    const auto path = store.path_for(key, ArtifactKind::Table);
    const auto pristine = read_file_bytes(path);
    ASSERT_TRUE(pristine.has_value());

    // Flip one bit at a spread of offsets (magic, kind, size, checksum,
    // payload): each corrupted copy must be rejected.
    for (const std::size_t offset :
         {std::size_t{0}, std::size_t{9}, std::size_t{17}, std::size_t{25},
          pristine->size() / 2, pristine->size() - 1}) {
        auto corrupted = *pristine;
        corrupted[offset] ^= 0x40;
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(reinterpret_cast<const char*>(corrupted.data()),
                   static_cast<std::streamsize>(corrupted.size()));
        EXPECT_FALSE(store.load_table(key).has_value())
            << "bit flip at offset " << offset;
    }
}

TEST(StoreTest, VersionBumpIsMiss)
{
    const TempDir dir("store-version-bump");
    const ArtifactStore store(dir.path);
    const StoreKey key = test_key("memo:f#0");
    ASSERT_TRUE(store.save_table(key, sample_table()));
    const auto path = store.path_for(key, ArtifactKind::Table);
    auto bytes = read_file_bytes(path);
    ASSERT_TRUE(bytes.has_value());

    // The format version is the second little-endian u32 of the header.
    (*bytes)[4] = static_cast<std::uint8_t>(kFormatVersion + 1);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes->data()),
               static_cast<std::streamsize>(bytes->size()));
    EXPECT_FALSE(store.load_table(key).has_value());
    EXPECT_EQ(store.stats().corrupt_rejects, 1u);
}

TEST(StoreTest, KindConfusionIsMiss)
{
    // A valid *calibration* record copied over a table's path must not
    // decode as a table.
    const TempDir dir("store-kind-confusion");
    const ArtifactStore store(dir.path);
    StoreKey calib_key = test_key("calibration");
    calib_key.metric = "L1";
    ASSERT_TRUE(store.save_calibration(calib_key, sample_record()));

    const StoreKey table_key = test_key("memo:f#0");
    std::filesystem::copy_file(
        store.path_for(calib_key, ArtifactKind::Calibration),
        store.path_for(table_key, ArtifactKind::Table));
    EXPECT_FALSE(store.load_table(table_key).has_value());
}

TEST(StoreTest, KeyEchoMismatchIsMiss)
{
    // A record filed under the wrong name (filename-hash collision or a
    // hand-renamed file) carries the wrong canonical key in its payload
    // and must read as a miss under the other key.
    const TempDir dir("store-key-echo");
    const ArtifactStore store(dir.path);
    const StoreKey key_a = test_key("memo:f#0");
    StoreKey key_b = test_key("memo:g#0");
    ASSERT_TRUE(store.save_table(key_a, sample_table()));

    std::filesystem::copy_file(store.path_for(key_a, ArtifactKind::Table),
                               store.path_for(key_b, ArtifactKind::Table));
    EXPECT_FALSE(store.load_table(key_b).has_value());
    EXPECT_EQ(store.stats().corrupt_rejects, 1u);
    // The original stays readable.
    EXPECT_TRUE(store.load_table(key_a).has_value());
}

TEST(StoreTest, GarbageFilesNeverCrash)
{
    const TempDir dir("store-garbage");
    const ArtifactStore store(dir.path);
    const StoreKey key = test_key("memo:f#0");
    const auto path = store.path_for(key, ArtifactKind::Table);

    Rng rng(7);
    for (const std::size_t size :
         {std::size_t{1}, std::size_t{8}, std::size_t{32}, std::size_t{33},
          std::size_t{200}, std::size_t{4096}}) {
        std::vector<char> junk(size);
        for (char& byte : junk)
            byte = static_cast<char>(rng.uniform_int(0, 255));
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(junk.data(), static_cast<std::streamsize>(junk.size()));
        EXPECT_FALSE(store.load_table(key).has_value())
            << size << " bytes of garbage";
        EXPECT_FALSE(store.load_program(key).has_value());
    }
}

TEST(StoreTest, CorruptKernelCalibrationIsMissNeverCrash)
{
    const TempDir dir("store-kernel-corrupt");
    const ArtifactStore store(dir.path);
    StoreKey key = test_key("calibration");
    key.metric = "L2";
    expect_corruption_is_miss(store, key, sample_record());
}

TEST(StoreTest, CorruptPipelineCalibrationIsMissNeverCrash)
{
    const TempDir dir("store-pipeline-corrupt");
    const ArtifactStore store(dir.path);
    StoreKey key = test_key("pipeline:blur>sobel");
    key.metric = "L1";
    expect_corruption_is_miss(store, key, sample_pipeline_calibration());

    // A joint config whose arity differs from the stage count.
    CalibrationRecord hostile = sample_pipeline_calibration();
    hostile.configs[2].push_back("exact");
    expect_rejected(store, key, hostile);
    // Configs not index-aligned with the profiles.
    hostile = sample_pipeline_calibration();
    hostile.configs.pop_back();
    expect_rejected(store, key, hostile);
    // Configs without the stage names that give them meaning.
    hostile = sample_pipeline_calibration();
    hostile.stage_names.clear();
    for (auto& config : hostile.configs)
        config.clear();
    expect_rejected(store, key, hostile);
}

TEST(StoreTest, CorruptPrecisionCalibrationIsMissNeverCrash)
{
    // The full corruption matrix against a record with a plans section,
    // plus every semantically hostile plan the decoder must refuse.
    const TempDir dir("store-precision-corrupt");
    const ArtifactStore store(dir.path);
    StoreKey key = test_key("data-tier");
    key.metric = "L2";
    expect_corruption_is_miss(store, key, sample_precision_calibration());

    // The leading plan packs a buffer: no all-exact fallback recorded.
    CalibrationRecord hostile = sample_precision_calibration();
    std::swap(hostile.plans[0], hostile.plans[1]);
    expect_rejected(store, key, hostile);
    // Plans not index-aligned with the profiles.
    hostile = sample_precision_calibration();
    hostile.plans.pop_back();
    expect_rejected(store, key, hostile);
    // A codec byte past the last codec.
    hostile = sample_precision_calibration();
    hostile.plans[3].assignments[0].codec =
        static_cast<data::Codec>(data::kNumCodecs);
    expect_rejected(store, key, hostile);
    // Int8 parameters that would poison live packing: a scale that is
    // not finite and positive, or a non-finite zero.
    for (const auto& [scale, zero] :
         {std::pair{0.0f, 0.0f}, std::pair{-1.0f, 0.0f},
          std::pair{std::numeric_limits<float>::infinity(), 0.0f},
          std::pair{std::numeric_limits<float>::quiet_NaN(), 0.0f},
          std::pair{0.25f, std::numeric_limits<float>::quiet_NaN()}}) {
        hostile = sample_precision_calibration();
        hostile.plans[2].assignments[0].quant = {scale, zero};
        expect_rejected(store, key, hostile);
    }
}

TEST(StoreTest, CalibrationWithBothSectionsIsMiss)
{
    // A record describes one family: pipeline configs and precision plans
    // together cannot both rebuild it, so the decoder refuses the pair.
    const TempDir dir("store-both-sections");
    const ArtifactStore store(dir.path);
    StoreKey key = test_key("calibration");
    key.metric = "L1";
    CalibrationRecord both = sample_pipeline_calibration();
    both.plans = sample_precision_calibration().plans;
    expect_rejected(store, key, both);
    EXPECT_GT(store.stats().corrupt_rejects, 0u);
}

TEST(StoreTest, ListAndPruneSeparateValidFromInvalid)
{
    const TempDir temp("store-list-prune");
    const std::filesystem::path& dir = temp.path;
    const ArtifactStore store(dir);
    ASSERT_TRUE(store.save_table(test_key("memo:f#0"), sample_table()));
    std::ofstream(dir / "junk.ppx") << "not a record";
    std::ofstream(dir / "stray.ppx.tmp123") << "dead writer";

    const auto entries = store.list();
    ASSERT_EQ(entries.size(), 2u);  // .tmp files are not records.
    std::size_t valid = 0;
    for (const auto& entry : entries)
        valid += entry.valid ? 1 : 0;
    EXPECT_EQ(valid, 1u);

    // Prune removes the invalid record and the stray temp file only.
    EXPECT_EQ(store.prune(), 2u);
    ASSERT_EQ(store.list().size(), 1u);
    EXPECT_TRUE(store.list()[0].valid);
    EXPECT_TRUE(store.load_table(test_key("memo:f#0")).has_value());

    EXPECT_EQ(store.prune(/*everything=*/true), 1u);
    EXPECT_TRUE(store.list().empty());
}

// ---- Warm start end-to-end --------------------------------------------------

const char* kSource = R"(
float curve(float x) {
    float s = 1.0f / (1.0f + expf(-x));
    return s * sqrtf(1.0f + x * x) + logf(1.0f + expf(x));
}

__kernel void apply(__global float* in, __global float* out) {
    int i = get_global_id(0);
    out[i] = curve(in[i]);
}
)";

constexpr int kN = 256;

core::CompileOptions
session_options()
{
    core::CompileOptions options;
    options.toq = 90.0;
    options.device = device::DeviceModel::gtx560();
    options.training = core::uniform_training(-4.0f, 4.0f);
    return options;
}

core::LaunchPlan
session_plan()
{
    core::LaunchPlan plan;
    plan.config = exec::LaunchConfig::linear(kN, 64);
    plan.output_buffer = "out";
    plan.bind_inputs =
        [](std::uint64_t seed, exec::ArgPack& args,
           std::vector<std::unique_ptr<exec::Buffer>>& storage) {
            Rng rng(seed);
            storage.push_back(
                std::make_unique<exec::Buffer>(exec::Buffer::from_floats(
                    rng.uniform_vector(kN, -4.0f, 4.0f))));
            args.buffer("in", *storage.back());
            storage.push_back(std::make_unique<exec::Buffer>(
                exec::Buffer::zeros_f32(kN)));
            args.buffer("out", *storage.back());
        };
    return plan;
}

/// runtime::warm_tuner over @p session's variants as a plain family, keyed
/// by its calibration key.
runtime::WarmTuner
session_warm_tuner(const runtime::KernelSession& session,
                   const std::vector<std::uint64_t>& seeds)
{
    constexpr auto metric = runtime::Metric::MeanRelativeError;
    return runtime::warm_tuner(
        runtime::kernel_family(session.variants(session_plan()),
                               session.calibration_key(metric)),
        metric, session.options().toq, seeds);
}

TEST(StoreWarmStartTest, WarmSessionSkipsSearchAndMatchesColdSelection)
{
    const TempDir dir("store-warm-start");
    const auto store = ArtifactStore::configure_global(dir.path);
    vm::ProgramCache::global().clear();
    const std::vector<std::uint64_t> seeds = {1, 2, 3};

    // Cold: compiles, runs the table-size search, calibrates — and
    // persists all three artifact kinds.
    auto module = parser::parse_module(kSource);
    const std::uint64_t searches_before = memo::table_search_invocations();
    runtime::KernelSession cold(module, "apply", session_options());
    const auto cold_tuner = session_warm_tuner(cold, seeds);
    EXPECT_FALSE(cold_tuner.warm);
    EXPECT_GT(memo::table_search_invocations(), searches_before);
    EXPECT_GT(store->stats().writes, 0u);

    // Simulate a fresh process: drop the in-memory bytecode tier.  The
    // warm session must not search table sizes or calibrate, and must
    // serve the identical selection.
    vm::ProgramCache::global().clear();
    const auto cache_before = vm::ProgramCache::global().stats();
    const std::uint64_t searches_cold = memo::table_search_invocations();
    runtime::KernelSession warm(module, "apply", session_options());
    const auto warm_tuner = session_warm_tuner(warm, seeds);
    EXPECT_TRUE(warm_tuner.warm);
    EXPECT_EQ(memo::table_search_invocations(), searches_cold);
    EXPECT_EQ(warm_tuner.tuner->selected_label(),
              cold_tuner.tuner->selected_label());

    // Bytecode came from the disk tier, not recompilation.
    const auto cache_after = vm::ProgramCache::global().stats();
    EXPECT_GT(cache_after.disk_hits, cache_before.disk_hits);
    EXPECT_EQ(cache_after.misses, cache_before.misses);

    // Identical members and outputs either way.
    ASSERT_EQ(warm.members().size(), cold.members().size());
    const auto cold_variants = cold.variants(session_plan());
    const auto warm_variants = warm.variants(session_plan());
    for (std::size_t m = 0; m < warm.members().size(); ++m) {
        EXPECT_EQ(warm.members()[m].label, cold.members()[m].label);
        const auto a = cold_variants[m].run(99);
        const auto b = warm_variants[m].run(99);
        EXPECT_EQ(a.output, b.output);
    }

    // The restored tuner audits its first approximate invocation.
    warm_tuner.tuner->invoke(7);
    EXPECT_EQ(warm_tuner.tuner->stats_snapshot().quality_checks,
              warm_tuner.tuner->selected_index() != 0 ? 1u : 0u);

    ArtifactStore::disable_global();
    vm::ProgramCache::global().clear();
}

TEST(StoreWarmStartTest, StaleCalibrationIsRejectedNotInstalled)
{
    const TempDir dir("store-stale-calibration");
    const auto store = ArtifactStore::configure_global(dir.path);
    vm::ProgramCache::global().clear();

    auto module = parser::parse_module(kSource);
    runtime::KernelSession session(module, "apply", session_options());
    const auto key =
        session.calibration_key(runtime::Metric::MeanRelativeError);

    // A calibration whose labels don't match the live variant list (a
    // different build wrote it) must be ignored and recalibrated over.
    CalibrationRecord stale;
    stale.calibration.profiles = {
        {"exact", 1.0, 1.0, 100.0, true, false},
        {"renamed-variant", 2.0, 2.0, 95.0, true, false}};
    stale.calibration.fallback_order = {1, 0};
    stale.calibration.selected = 1;
    ASSERT_TRUE(store->save_calibration(key, stale));

    const auto tuner = session_warm_tuner(session, {1, 2});
    EXPECT_FALSE(tuner.warm);  // Fell back to a live calibration.
    EXPECT_GE(tuner.tuner->profiles().size(), 2u);

    // The live labels under a data-tier section: a plain family has no
    // section to rebuild from, so the record is not installed either.
    CalibrationRecord sectioned = tuner.record;
    sectioned.plans.assign(sectioned.calibration.profiles.size(),
                           data::PrecisionPlan{"exact", {}});
    ASSERT_TRUE(store->save_calibration(key, sectioned));
    ASSERT_TRUE(store->load_calibration(key).has_value());
    EXPECT_FALSE(session_warm_tuner(session, {1, 2}).warm);
    EXPECT_TRUE(session_warm_tuner(session, {1, 2}).warm);

    ArtifactStore::disable_global();
    vm::ProgramCache::global().clear();
}

TEST(StoreWarmStartTest, RestoreRejectsArityAndHostileCalibrations)
{
    // Tuner::restore_calibration is the last line of defense between a
    // stored record and the serving path; every structurally plausible
    // but wrong shape must be rejected without touching the tuner.
    const auto variant = [](const std::string& label, int aggr, float bias,
                            double cycles) {
        return runtime::Variant{label, aggr,
                                [bias, cycles](const runtime::Input& input) {
                                    const std::uint64_t seed = input.seed();
                                    runtime::VariantRun run;
                                    run.output = {
                                        static_cast<float>(seed % 100) +
                                            1.0f + bias,
                                        10.0f + bias};
                                    run.modeled_cycles = cycles;
                                    return run;
                                }};
    };
    std::vector<runtime::Variant> variants;
    variants.push_back(variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(variant("good", 1, 0.1f, 100.0));
    runtime::Tuner tuner(std::move(variants),
                         runtime::Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2, 3});
    const auto good = tuner.calibration_state();
    const std::string cold_selected = tuner.selected_label();

    // Arity drift: a build added or removed a variant since the record
    // was written.
    auto drifted = good;
    drifted.profiles.pop_back();
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.profiles.push_back(drifted.profiles.back());
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // Label drift: same arity, different inventory.
    drifted = good;
    drifted.profiles[1].label = "renamed";
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // Hostile fallback chains: empty, not ending at the exact kernel,
    // duplicated entries, out-of-range index.
    drifted = good;
    drifted.fallback_order.clear();
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.fallback_order = {1};
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.fallback_order = {0, 0};
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.fallback_order = {7, 0};
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // A chain member that trapped or missed the TOQ cannot serve.
    ASSERT_NE(good.fallback_order.front(), 0);
    drifted = good;
    drifted.profiles[drifted.fallback_order.front()].trapped = true;
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.profiles[drifted.fallback_order.front()].meets_toq = false;
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    // Nor one slower than exact in wall clock.
    drifted = good;
    drifted.profiles[drifted.fallback_order.front()].slower_than_exact =
        true;
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // A record claiming the exact kernel trapped or missed its own TOQ
    // is hostile by definition (it would drop index 0 from the ladder).
    drifted = good;
    drifted.profiles[0].trapped = true;
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.profiles[0].meets_toq = false;
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // The selection must be the chain head.
    drifted = good;
    drifted.selected = 0;
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // None of the rejects touched the live selection, and the genuine
    // record still installs.
    EXPECT_EQ(tuner.selected_label(), cold_selected);
    EXPECT_TRUE(tuner.restore_calibration(good));
    EXPECT_EQ(tuner.selected_label(), cold_selected);
}

TEST(StoreWarmStartTest, SlowdownStaysOffTheChainAcrossAStoreRoundTrip)
{
    // "fast" meets the TOQ with the best modeled speedup, but runs slower
    // than exact on every training input.  A tuner restored from the
    // stored record must keep it off the chain and the ladder.
    const auto variant = [](const std::string& label, int aggr, float bias,
                            double cycles, double wall) {
        return runtime::Variant{
            label, aggr, [bias, cycles, wall](const runtime::Input& input) {
                runtime::VariantRun run;
                run.output = {static_cast<float>(input.seed() % 100) +
                                  1.0f + bias,
                              10.0f + bias};
                run.modeled_cycles = cycles;
                run.wall_seconds = wall;
                return run;
            }};
    };
    std::vector<runtime::Variant> variants;
    variants.push_back(variant("exact", 0, 0.0f, 1000.0, 2e-3));
    variants.push_back(variant("good", 1, 0.1f, 500.0, 1e-3));
    variants.push_back(variant("fast", 2, 0.1f, 100.0, 3e-3));
    runtime::Tuner cold(variants, runtime::Metric::MeanRelativeError, 90.0);
    cold.calibrate({1, 2, 3});
    ASSERT_EQ(cold.selected_label(), "good");

    const TempDir dir("store-slowdown-roundtrip");
    const ArtifactStore store(dir.path);
    const StoreKey key = test_key("calibration");
    CalibrationRecord record;
    record.calibration = cold.calibration_state();
    record.toq = 90.0;
    record.metric = "Mean relative error";
    ASSERT_TRUE(store.save_calibration(key, record));
    const auto loaded = store.load_calibration(key);
    ASSERT_TRUE(loaded.has_value());

    runtime::Tuner warm(variants, runtime::Metric::MeanRelativeError, 90.0);
    ASSERT_TRUE(warm.restore_calibration(loaded->calibration));
    EXPECT_TRUE(warm.profiles()[2].slower_than_exact);
    EXPECT_EQ(warm.selected_label(), "good");
    EXPECT_EQ(warm.calibration_state().fallback_order,
              (std::vector<int>{1, 0}));
    warm.set_degradation_level(2);
    EXPECT_EQ(warm.serve_batch({runtime::Input(7)}).label, "good");
}

TEST(StoreWarmStartTest, HostileCalibrationNeverServesFromALiveService)
{
    // The serving-path version of the two rejection tests above: a stale
    // record (labels from another build) and a corrupted record (bytes
    // flipped on disk) restored into a *live* ApproxService must both
    // fall back to cold calibration — and every request served from that
    // service must come from the cold selection, never from whatever the
    // hostile record pointed at.
    const TempDir dir("store-hostile-live-serve");
    const auto store = ArtifactStore::configure_global(dir.path);

    StoreKey key;
    key.kernel = "k";
    key.device = "synthetic";
    key.toq = 90.0;
    key.metric = "Mean relative error";
    key.detail = "calibration";

    const auto build = [] {
        const auto variant = [](const std::string& label, int aggr,
                                float bias, double cycles) {
            return runtime::Variant{
                label, aggr, [bias, cycles](const runtime::Input& input) {
                    const std::uint64_t seed = input.seed();
                    runtime::VariantRun run;
                    run.output = {static_cast<float>(seed % 100) + 1.0f +
                                      bias,
                                  10.0f + bias};
                    run.modeled_cycles = cycles;
                    return run;
                }};
        };
        std::vector<runtime::Variant> variants;
        variants.push_back(variant("exact", 0, 0.0f, 1000.0));
        variants.push_back(variant("good", 1, 0.1f, 100.0));
        return variants;
    };
    const auto serve_and_check = [](serve::ApproxService& service) {
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
            serve::Ticket ticket = service.submit("k", seed);
            ASSERT_TRUE(ticket.accepted);
            const serve::Response response = ticket.response.get();
            EXPECT_EQ(response.served_by, "good");
            EXPECT_EQ(response.run.output.size(), 2u);
        }
    };

    // Stale: a record naming a variant this build does not have.
    CalibrationRecord stale;
    stale.calibration.profiles = {
        {"exact", 1.0, 1.0, 100.0, true, false},
        {"renamed-variant", 9.0, 9.0, 99.0, true, false}};
    stale.calibration.fallback_order = {1, 0};
    stale.calibration.selected = 1;
    ASSERT_TRUE(store->save_calibration(key, stale));
    {
        serve::ApproxService service{[] {
            serve::ServiceConfig config;
            config.num_workers = 1;
            config.queue_capacity = 16;
            return config;
        }()};
        service.register_kernel("k", build(),
                                runtime::Metric::MeanRelativeError, 90.0,
                                {1, 2, 3}, key);
        EXPECT_EQ(service.metrics().snapshot().warm_registrations, 0u);
        EXPECT_EQ(service.kernel_snapshot("k").selected, "good");
        serve_and_check(service);
        service.stop();
    }
    // Registration overwrote the stale record with the cold result; the
    // key now round-trips to the live labels.
    {
        const auto reloaded = store->load_calibration(key);
        ASSERT_TRUE(reloaded.has_value());
        EXPECT_EQ(reloaded->calibration.profiles[1].label, "good");
    }

    // Corrupted: flip one payload byte of the (now valid) record.  The
    // checksum rejects it, the warm start reads as a miss, and the
    // service calibrates cold again.
    const auto path = store->path_for(key, ArtifactKind::Calibration);
    auto bytes = read_file_bytes(path);
    ASSERT_TRUE(bytes.has_value());
    (*bytes)[bytes->size() / 2] ^= 0x40;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes->data()),
               static_cast<std::streamsize>(bytes->size()));
    const std::uint64_t rejects_before = store->stats().corrupt_rejects;
    {
        serve::ApproxService service{[] {
            serve::ServiceConfig config;
            config.num_workers = 1;
            config.queue_capacity = 16;
            return config;
        }()};
        service.register_kernel("k", build(),
                                runtime::Metric::MeanRelativeError, 90.0,
                                {1, 2, 3}, key);
        EXPECT_GT(store->stats().corrupt_rejects, rejects_before);
        EXPECT_EQ(service.metrics().snapshot().warm_registrations, 0u);
        EXPECT_EQ(service.kernel_snapshot("k").selected, "good");
        serve_and_check(service);
        service.stop();
    }

    ArtifactStore::disable_global();
}

}  // namespace
}  // namespace paraprox::store
