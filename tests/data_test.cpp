// The approximate data tier: storage codecs, packed buffers, the storage
// safety analysis, VM transcoding on packed views, precision-plan
// enumeration, and warm-restart behavior.
//
// The codec tests are property-style: every special value class (NaN,
// +-Inf, denormals, negative zero, extreme magnitudes) and thousands of
// random bit patterns go through every codec, asserting the documented
// saturation semantics and that encoding is idempotent.  These run under
// UBSan in CI — a conversion invoking UB fails the job even when the
// value assertions pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "apps/app.h"
#include "data/codec.h"
#include "data/packed_buffer.h"
#include "data/safety.h"
#include "exec/launch.h"
#include "parser/parser.h"
#include "runtime/data_tier.h"
#include "runtime/quality.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/temp_dir.h"
#include "vm/compiler.h"
#include "vm/program_cache.h"
#include "wall_double.h"

namespace paraprox::data {
namespace {

using exec::ArgPack;
using exec::Buffer;
using exec::LaunchConfig;

constexpr Codec kLossyCodecs[] = {Codec::Fp24, Codec::Bf16, Codec::Fp16,
                                  Codec::Int8};
constexpr Codec kFloatCodecs[] = {Codec::Fp24, Codec::Bf16, Codec::Fp16};

float
roundtrip(Codec codec, float value, const QuantParams& quant = {})
{
    return decode_value(codec, encode_value(codec, value, quant), quant);
}

// ---- Codec properties -------------------------------------------------------

TEST(CodecTest, StorageGeometry)
{
    EXPECT_EQ(storage_bytes(Codec::Exact), 4);
    EXPECT_EQ(storage_bytes(Codec::Fp24), 3);
    EXPECT_EQ(storage_bytes(Codec::Bf16), 2);
    EXPECT_EQ(storage_bytes(Codec::Fp16), 2);
    EXPECT_EQ(storage_bytes(Codec::Int8), 1);

    EXPECT_EQ(packed_words(Codec::Exact, 5), 5);
    EXPECT_EQ(packed_words(Codec::Fp24, 5), 4);   // 15 bytes
    EXPECT_EQ(packed_words(Codec::Bf16, 5), 3);   // 10 bytes
    EXPECT_EQ(packed_words(Codec::Int8, 5), 2);   // 5 bytes
    EXPECT_EQ(packed_words(Codec::Int8, 0), 0);
}

TEST(CodecTest, NaNStaysNaNInFloatCodecs)
{
    const float nans[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::signaling_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::bit_cast<float>(0x7f800001u),  // minimal NaN payload
        std::bit_cast<float>(0xffc12345u),  // negative, wide payload
    };
    for (Codec codec : kFloatCodecs) {
        for (float nan : nans)
            EXPECT_TRUE(std::isnan(roundtrip(codec, nan)))
                << to_string(codec);
    }
}

TEST(CodecTest, NaNEncodesAsZeroPointInInt8)
{
    const QuantParams quant{0.5f, 10.0f};
    const float decoded =
        roundtrip(Codec::Int8, std::numeric_limits<float>::quiet_NaN(),
                  quant);
    EXPECT_FLOAT_EQ(decoded, 10.0f);  // q = 0 decodes to `zero`
}

TEST(CodecTest, InfinitiesFollowTheSpec)
{
    const float inf = std::numeric_limits<float>::infinity();
    // True infinities are preserved by the float codecs (only *finite*
    // overflow saturates).
    for (Codec codec : kFloatCodecs) {
        EXPECT_EQ(roundtrip(codec, inf), inf) << to_string(codec);
        EXPECT_EQ(roundtrip(codec, -inf), -inf) << to_string(codec);
    }
    // Int8 clamps them to the range ends.
    const QuantParams quant{2.0f, 1.0f};
    EXPECT_FLOAT_EQ(roundtrip(Codec::Int8, inf, quant),
                    2.0f * 127.0f + 1.0f);
    EXPECT_FLOAT_EQ(roundtrip(Codec::Int8, -inf, quant),
                    2.0f * -128.0f + 1.0f);
}

TEST(CodecTest, FiniteOverflowSaturatesInsteadOfManufacturingInf)
{
    const float max = std::numeric_limits<float>::max();
    for (Codec codec : kFloatCodecs) {
        const float saturated = roundtrip(codec, max);
        EXPECT_TRUE(std::isfinite(saturated)) << to_string(codec);
        EXPECT_GT(saturated, 0.0f);
        EXPECT_TRUE(std::isfinite(roundtrip(codec, -max)))
            << to_string(codec);
    }
    // The documented saturation points.
    EXPECT_FLOAT_EQ(roundtrip(Codec::Fp16, max), 65504.0f);
    EXPECT_FLOAT_EQ(roundtrip(Codec::Fp16, -65505.0f), -65504.0f);
    EXPECT_FLOAT_EQ(roundtrip(Codec::Bf16, max),
                    std::bit_cast<float>(0x7f7f0000u));
    // Int8 with any valid params: finite in, finite out.
    EXPECT_TRUE(std::isfinite(roundtrip(Codec::Int8, max, {1.0f, 0.0f})));
}

TEST(CodecTest, NegativeZeroKeepsItsSign)
{
    for (Codec codec : kFloatCodecs) {
        const float decoded = roundtrip(codec, -0.0f);
        EXPECT_EQ(decoded, 0.0f) << to_string(codec);
        EXPECT_TRUE(std::signbit(decoded)) << to_string(codec);
    }
}

TEST(CodecTest, DenormalsDegradeGracefully)
{
    const float tiny[] = {
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::min(),       // smallest fp32 normal
        6.0e-8f,                                 // fp16 subnormal range
        -6.0e-8f,
    };
    for (Codec codec : kFloatCodecs) {
        for (float value : tiny) {
            const float decoded = roundtrip(codec, value);
            EXPECT_FALSE(std::isnan(decoded)) << to_string(codec);
            EXPECT_LE(std::fabs(decoded), 2.0f * std::fabs(value) + 1e-37f)
                << to_string(codec) << " of " << value;
        }
    }
    // fp16 keeps subnormal resolution: 2^-24 survives exactly.
    EXPECT_FLOAT_EQ(roundtrip(Codec::Fp16, 5.9604644775390625e-8f),
                    5.9604644775390625e-8f);
    EXPECT_FLOAT_EQ(roundtrip(Codec::Fp16, -5.9604644775390625e-8f),
                    -5.9604644775390625e-8f);
}

TEST(CodecTest, EncodingIsIdempotentOnArbitraryBitPatterns)
{
    // decode(encode(x)) is a fixed point: re-encoding the decoded value
    // must reproduce the stored bits exactly, for *any* input pattern —
    // including NaN payloads, infinities, and denormals.
    Rng rng(0xc0dec);
    for (int i = 0; i < 20000; ++i) {
        const auto bits = static_cast<std::uint32_t>(rng.next_u64());
        const float value = std::bit_cast<float>(bits);
        for (Codec codec : kLossyCodecs) {
            const QuantParams quant{0.25f, -3.0f};
            const std::uint32_t stored = encode_value(codec, value, quant);
            const float decoded = decode_value(codec, stored, quant);
            const std::uint32_t restored =
                encode_value(codec, decoded, quant);
            EXPECT_EQ(stored, restored)
                << to_string(codec) << " bits=0x" << std::hex << bits;
        }
    }
}

TEST(CodecTest, RelativeErrorStaysWithinMantissaBudget)
{
    Rng rng(0xe44);
    const auto values = rng.uniform_vector(4096, -1000.0f, 1000.0f);
    for (float value : values) {
        if (std::fabs(value) < 1e-3f)
            continue;  // relative error is meaningless near zero
        const double v = value;
        // One rounding step at N kept mantissa bits: rel err <= 2^-(N+1).
        EXPECT_NEAR(roundtrip(Codec::Fp24, value), v,
                    std::fabs(v) / (1 << 16));
        EXPECT_NEAR(roundtrip(Codec::Bf16, value), v, std::fabs(v) / (1 << 8));
        EXPECT_NEAR(roundtrip(Codec::Fp16, value), v,
                    std::fabs(v) / (1 << 11));
    }
    // Int8 against fitted params: absolute error <= scale/2.
    const QuantParams quant = PackedBuffer::fit_quant(values);
    for (float value : values)
        EXPECT_NEAR(roundtrip(Codec::Int8, value, quant), value,
                    quant.scale * 0.5f + 1e-4f);
}

TEST(CodecTest, ElementAccessTouchesOnlyItsOwnBytes)
{
    // Neighbouring elements of a packed array must be undisturbed by a
    // store, at every alignment a 3-byte codec can produce.
    for (Codec codec : kLossyCodecs) {
        std::vector<std::int32_t> words(packed_words(codec, 16), 0);
        const QuantParams quant{0.25f, 0.0f};
        for (std::int64_t i = 0; i < 16; ++i)
            store_element(codec, words.data(), i, static_cast<float>(i),
                          quant);
        store_element(codec, words.data(), 7, -3.0f, quant);
        for (std::int64_t i = 0; i < 16; ++i) {
            const float expected = i == 7 ? -3.0f : static_cast<float>(i);
            EXPECT_NEAR(load_element(codec, words.data(), i, quant),
                        expected, 0.13)
                << to_string(codec) << " element " << i;
        }
    }
}

// ---- PackedBuffer -----------------------------------------------------------

TEST(PackedBufferTest, PackUnpackRoundTripsWithinCodecError)
{
    Rng rng(0x9ac);
    const auto values = rng.uniform_vector(300, -50.0f, 50.0f);
    for (Codec codec : kFloatCodecs) {
        PackedBuffer packed = PackedBuffer::pack(codec, values);
        EXPECT_EQ(packed.size(), 300);
        EXPECT_EQ(packed.storage_bytes_total(),
                  300 * storage_bytes(codec));
        const auto decoded = packed.unpack();
        ASSERT_EQ(decoded.size(), values.size());
        for (std::size_t i = 0; i < values.size(); ++i)
            EXPECT_NEAR(decoded[i], values[i],
                        std::fabs(values[i]) / 100.0 + 1e-3);
    }
}

TEST(PackedBufferTest, GetSetAndBoundsChecks)
{
    PackedBuffer packed(Codec::Bf16, 8);
    packed.set(3, 1.5f);
    EXPECT_FLOAT_EQ(packed.get(3), 1.5f);  // 1.5 is exact in bf16
    EXPECT_FLOAT_EQ(packed.get(0), 0.0f);
    EXPECT_THROW(packed.get(-1), Error);
    EXPECT_THROW(packed.get(8), Error);
    EXPECT_THROW(packed.set(8, 1.0f), Error);
    EXPECT_THROW(packed.repack(std::vector<float>(7, 0.0f)), Error);
}

TEST(PackedBufferTest, Int8RequiresValidQuantParams)
{
    EXPECT_THROW(PackedBuffer(Codec::Int8, 4, {0.0f, 0.0f}), Error);
    EXPECT_THROW(PackedBuffer(Codec::Int8, 4, {-1.0f, 0.0f}), Error);
    EXPECT_THROW(
        PackedBuffer(Codec::Int8, 4,
                     {std::numeric_limits<float>::infinity(), 0.0f}),
        Error);
    EXPECT_THROW(
        PackedBuffer(Codec::Int8, 4,
                     {1.0f, std::numeric_limits<float>::quiet_NaN()}),
        Error);
    EXPECT_NO_THROW(PackedBuffer(Codec::Int8, 4, {0.5f, -2.0f}));
}

TEST(PackedBufferTest, FitQuantHandlesDegenerateInputs)
{
    EXPECT_FLOAT_EQ(PackedBuffer::fit_quant({}).scale, 1.0f);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FLOAT_EQ(PackedBuffer::fit_quant({nan, nan}).scale, 1.0f);
    const QuantParams point = PackedBuffer::fit_quant({7.0f, 7.0f});
    EXPECT_FLOAT_EQ(point.scale, 1.0f);
    EXPECT_FLOAT_EQ(point.zero, 7.0f);

    // A real range: the fitted params must cover both ends.
    const QuantParams fitted =
        PackedBuffer::fit_quant({-10.0f, nan, 4.0f, 30.0f});
    EXPECT_NEAR(roundtrip(Codec::Int8, -10.0f, fitted), -10.0f,
                fitted.scale);
    EXPECT_NEAR(roundtrip(Codec::Int8, 30.0f, fitted), 30.0f, fitted.scale);
}

// ---- Storage safety analysis ------------------------------------------------

vm::Program
compile(const char* source, const std::string& kernel)
{
    const ir::Module module = parser::parse_module(source);
    return vm::compile_kernel(module, kernel);
}

PinReason
pin_for(const vm::Program& program, const StorageSafety& safety,
        const std::string& name)
{
    for (std::size_t slot = 0; slot < program.buffers.size(); ++slot) {
        if (program.buffers[slot].name == name)
            return safety.pins[slot];
    }
    ADD_FAILURE() << "no buffer named " << name;
    return PinReason::None;
}

TEST(SafetyTest, PureMapBuffersArePackable)
{
    const auto program = compile(R"(
        __kernel void map(__global float* in, __global float* out) {
            int i = get_global_id(0);
            out[i] = in[i] * 2.0f;
        }
    )", "map");
    const StorageSafety safety = analyze_storage_safety(program);
    EXPECT_EQ(pin_for(program, safety, "in"), PinReason::None);
    EXPECT_EQ(pin_for(program, safety, "out"), PinReason::None);
    EXPECT_EQ(safety.packable_slots().size(), 2u);
}

TEST(SafetyTest, FloatIndexSourceIsPinned)
{
    // fidx's *values* become load addresses: a storage bit flip would
    // redirect the gather, so it must stay exact.  The gathered data and
    // the output remain plain value streams.
    const auto program = compile(R"(
        __kernel void gather(__global float* fidx, __global float* table_v,
                             __global float* out) {
            int i = get_global_id(0);
            int j = (int)(fidx[i]);
            out[i] = table_v[j];
        }
    )", "gather");
    const StorageSafety safety = analyze_storage_safety(program);
    EXPECT_EQ(pin_for(program, safety, "fidx"), PinReason::IndexSource);
    EXPECT_EQ(pin_for(program, safety, "table_v"), PinReason::None);
    EXPECT_EQ(pin_for(program, safety, "out"), PinReason::None);
}

TEST(SafetyTest, IndexTaintFlowsThroughMemoryRoundTrips)
{
    // The tainted value takes a detour through `scratch` before becoming
    // an address: the fixpoint must follow St -> Ld through the buffer.
    const auto program = compile(R"(
        __kernel void laundered(__global float* fidx,
                                __global float* scratch,
                                __global float* table_v,
                                __global float* out) {
            int i = get_global_id(0);
            scratch[i] = fidx[i] + 1.0f;
            int j = (int)(scratch[i]);
            out[i] = table_v[j];
        }
    )", "laundered");
    const StorageSafety safety = analyze_storage_safety(program);
    EXPECT_EQ(pin_for(program, safety, "fidx"), PinReason::IndexSource);
    // scratch is also loaded+stored; either pin keeps it exact.
    EXPECT_NE(pin_for(program, safety, "scratch"), PinReason::None);
    EXPECT_EQ(pin_for(program, safety, "out"), PinReason::None);
}

TEST(SafetyTest, InPlaceAccumulatorIsPinned)
{
    const auto program = compile(R"(
        __kernel void accum(__global float* in, __global float* out) {
            int i = get_global_id(0);
            out[i] = out[i] + in[i];
        }
    )", "accum");
    const StorageSafety safety = analyze_storage_safety(program);
    EXPECT_EQ(pin_for(program, safety, "out"), PinReason::ReadWrite);
    EXPECT_EQ(pin_for(program, safety, "in"), PinReason::None);
}

TEST(SafetyTest, AtomicTargetsAndIntegerBuffersArePinned)
{
    const auto program = compile(R"(
        __kernel void reduce(__global float* in, __global float* fsum,
                             __global int* count) {
            int i = get_global_id(0);
            atomic_add(fsum, 0, in[i]);
            atomic_inc(count, 0);
        }
    )", "reduce");
    const StorageSafety safety = analyze_storage_safety(program);
    EXPECT_EQ(pin_for(program, safety, "fsum"), PinReason::AtomicTarget);
    EXPECT_EQ(pin_for(program, safety, "count"), PinReason::NonFloatElem);
    EXPECT_EQ(pin_for(program, safety, "in"), PinReason::None);
}

TEST(SafetyTest, TableBuffersArePinnedByName)
{
    const auto program = compile(R"(
        __kernel void map(__global float* in, __global float* out) {
            int i = get_global_id(0);
            out[i] = in[i];
        }
    )", "map");
    const StorageSafety safety = analyze_storage_safety(program, {"in"});
    EXPECT_EQ(pin_for(program, safety, "in"), PinReason::TableStorage);
    EXPECT_EQ(pin_for(program, safety, "out"), PinReason::None);
}

/// The acceptance property, checked against every Table 1 application's
/// exact kernel with an *independent* scan of the bytecode: no buffer the
/// kernel uses as an atomic target, updates in place, or types as
/// non-float may ever be packable — regardless of what the analysis'
/// own (more precise) machinery concluded.
TEST(SafetyTest, NoAppAtomicIndexOrAccumulatorBufferIsEverPackable)
{
    const auto apps = apps::make_all_applications();
    std::size_t sessions = 0;
    std::size_t packable_total = 0;
    for (const auto& app : apps) {
        app->set_scale(0.05);
        const auto setup = app->setup(device::DeviceModel::gtx560());
        if (!setup)
            continue;  // multi-kernel apps sit outside the data tier
        ++sessions;
        const auto& member = setup->session->members().front();
        std::vector<std::string> table_names;
        for (const auto& binding : member.tables)
            table_names.push_back(binding.buffer_param);
        const vm::Program& program = *member.program;
        const StorageSafety safety =
            analyze_storage_safety(program, table_names);

        std::set<std::size_t> loaded, stored, atomic_targets;
        for (const vm::Instr& instr : program.code) {
            switch (instr.op) {
              case vm::Opcode::Ld:
                loaded.insert(static_cast<std::size_t>(instr.imm.i));
                break;
              case vm::Opcode::St:
                stored.insert(static_cast<std::size_t>(instr.imm.i));
                break;
              case vm::Opcode::AtomAdd:
              case vm::Opcode::AtomMin:
              case vm::Opcode::AtomMax:
              case vm::Opcode::AtomInc:
              case vm::Opcode::AtomAnd:
              case vm::Opcode::AtomOr:
              case vm::Opcode::AtomXor:
                atomic_targets.insert(
                    static_cast<std::size_t>(instr.imm.i));
                break;
              default:
                break;
            }
        }
        for (std::size_t slot = 0; slot < program.buffers.size(); ++slot) {
            const auto& info = program.buffers[slot];
            const bool packable = safety.packable(static_cast<int>(slot));
            if (packable)
                ++packable_total;
            const std::string where =
                app->info().name + "/" + info.name;
            if (atomic_targets.count(slot)) {
                EXPECT_FALSE(packable) << "atomic target " << where;
            }
            if (loaded.count(slot) && stored.count(slot)) {
                EXPECT_FALSE(packable) << "in-place update " << where;
            }
            if (info.elem != ir::Scalar::F32) {
                EXPECT_FALSE(packable) << "non-float " << where;
            }
            if (info.space != ir::AddrSpace::Global) {
                EXPECT_FALSE(packable) << "non-global " << where;
            }
            for (const std::string& table : table_names) {
                if (info.name == table) {
                    EXPECT_FALSE(packable) << "table storage " << where;
                }
            }
        }
    }
    // The tier must actually apply somewhere: most apps expose a session,
    // and across them real packable buffers exist.
    EXPECT_GE(sessions, 8u);
    EXPECT_GE(packable_total, sessions);
}

// ---- VM execution over packed views -----------------------------------------

constexpr const char* kAffineKernel = R"(
__kernel void affine(__global float* in, __global float* out) {
    int i = get_global_id(0);
    out[i] = in[i] * 2.0f + 1.0f;
}
)";

TEST(VmPackedTest, PackedInputMatchesExactWithinCodecTolerance)
{
    const auto program = compile(kAffineKernel, "affine");
    Rng rng(0x77);
    const auto values = rng.uniform_vector(256, -8.0f, 8.0f);

    Buffer in = Buffer::from_floats(values);
    Buffer out_exact = Buffer::zeros_f32(256);
    ArgPack exact_args;
    exact_args.buffer("in", in).buffer("out", out_exact);
    exec::launch(program, exact_args, LaunchConfig::linear(256, 64));

    for (Codec codec : kFloatCodecs) {
        PackedBuffer packed = PackedBuffer::pack(codec, values);
        Buffer out = Buffer::zeros_f32(256);
        ArgPack args;
        args.packed("in", packed).buffer("out", out);
        const auto result =
            exec::launch(program, args, LaunchConfig::linear(256, 64));
        EXPECT_FALSE(result.trapped);
        const auto exact = out_exact.to_floats();
        const auto approx = out.to_floats();
        for (std::size_t i = 0; i < exact.size(); ++i)
            EXPECT_NEAR(approx[i], exact[i],
                        std::fabs(exact[i]) / 100.0 + 0.02)
                << to_string(codec);
    }
}

TEST(VmPackedTest, PackedOutputIsEncodedOnStore)
{
    const auto program = compile(kAffineKernel, "affine");
    const std::vector<float> values(64, 0.333333f);
    Buffer in = Buffer::from_floats(values);
    PackedBuffer out(Codec::Bf16, 64);
    ArgPack args;
    args.buffer("in", in).packed("out", out);
    const auto result =
        exec::launch(program, args, LaunchConfig::linear(64, 64));
    EXPECT_FALSE(result.trapped);
    const float expected = roundtrip(Codec::Bf16, 0.333333f * 2.0f + 1.0f);
    for (std::int64_t i = 0; i < 64; ++i)
        EXPECT_FLOAT_EQ(out.get(i), expected);
}

TEST(VmPackedTest, PackedBindingShadowsExactBinding)
{
    const auto program = compile(kAffineKernel, "affine");
    Buffer in_exact = Buffer::from_floats(std::vector<float>(64, 100.0f));
    PackedBuffer in_packed =
        PackedBuffer::pack(Codec::Bf16, std::vector<float>(64, 1.0f));
    Buffer out = Buffer::zeros_f32(64);
    ArgPack args;
    args.buffer("in", in_exact)
        .packed("in", in_packed)
        .buffer("out", out);
    exec::launch(program, args, LaunchConfig::linear(64, 64));
    // The packed values (1.0), not the exact binding's (100.0), fed the
    // kernel: the data tier packs over the app's own bind_inputs.
    EXPECT_FLOAT_EQ(out.to_floats()[0], 3.0f);
}

TEST(VmPackedTest, AtomicOnPackedBufferTrapsInsteadOfCorrupting)
{
    const auto program = compile(R"(
        __kernel void acc(__global float* in, __global float* fsum) {
            int i = get_global_id(0);
            atomic_add(fsum, 0, in[i]);
        }
    )", "acc");
    Buffer in = Buffer::from_floats(std::vector<float>(32, 1.0f));
    PackedBuffer fsum(Codec::Bf16, 1);
    ArgPack args;
    args.buffer("in", in).packed("fsum", fsum);
    // The safety analysis never emits such a plan; if hostile or buggy
    // code binds one anyway, the VM refuses at the atomic, cleanly.
    const auto result =
        exec::launch(program, args, LaunchConfig::linear(32, 32));
    EXPECT_TRUE(result.trapped);
    EXPECT_NE(result.trap_message.find("atomic"), std::string::npos);
}

TEST(VmPackedTest, NonFloatPackedBindingIsRejectedAtLaunch)
{
    const auto program = compile(R"(
        __kernel void count(__global int* hits) {
            int i = get_global_id(0);
            hits[i] = i;
        }
    )", "count");
    PackedBuffer hits(Codec::Bf16, 32);
    ArgPack args;
    args.packed("hits", hits);
    EXPECT_THROW(
        exec::launch(program, args, LaunchConfig::linear(32, 32)), Error);
}

// ---- Data tier + warm restart -----------------------------------------------

struct TierFixture {
    TierFixture()
        : module(parser::parse_module(kAffineKernel)),
          session(module, "affine", core::CompileOptions{})
    {
        plan.config = LaunchConfig::linear(256, 64);
        plan.output_buffer = "out";
        plan.bind_inputs = [](std::uint64_t seed, ArgPack& args,
                              std::vector<std::unique_ptr<Buffer>>&
                                  holder) {
            Rng rng(seed ^ 0xda7a);
            holder.push_back(std::make_unique<Buffer>(
                Buffer::from_floats(rng.uniform_vector(256, -4.0f, 4.0f))));
            args.buffer("in", *holder.back());
            holder.push_back(
                std::make_unique<Buffer>(Buffer::zeros_f32(256)));
            args.buffer("out", *holder.back());
        };
    }

    ir::Module module;
    runtime::KernelSession session;
    core::LaunchPlan plan;
};

TEST(DataTierTest, BuildsExactFirstPlanFamily)
{
    TierFixture fx;
    const runtime::DataTier tier =
        runtime::build_data_tier(fx.session, fx.plan);
    ASSERT_GE(tier.plans.size(), 2u);
    ASSERT_EQ(tier.plans.size(), tier.variants.size());
    EXPECT_TRUE(tier.plans[0].all_exact());
    EXPECT_EQ(tier.variants[0].label, "exact");
    EXPECT_EQ(tier.variants[0].aggressiveness, 0);

    const runtime::VariantRun exact = tier.variants[0].run(3);
    ASSERT_GT(exact.modeled_bytes, 0u);
    bool any_cycle_win = false;
    for (std::size_t i = 1; i < tier.variants.size(); ++i) {
        EXPECT_GT(tier.variants[i].aggressiveness, 0);
        const runtime::VariantRun run = tier.variants[i].run(3);
        ASSERT_FALSE(run.trapped) << tier.variants[i].label;
        ASSERT_EQ(run.output.size(), exact.output.size());
        // Every plan packs value streams only; quality stays high.
        EXPECT_GT(runtime::quality_percent(
                      runtime::Metric::MeanRelativeError, exact.output,
                      run.output),
                  50.0)
            << tier.variants[i].label;
        // Packing's guaranteed win is bandwidth: every plan moves fewer
        // priced bytes.  Cycles are a cache-state question — on a tiny
        // all-resident input a misaligned codec can issue extra
        // transactions — so only the family as a whole must contain a
        // cycle win (the tuner keeps exact when a plan does not pay).
        EXPECT_LT(run.modeled_bytes, exact.modeled_bytes)
            << tier.variants[i].label;
        if (run.modeled_cycles < exact.modeled_cycles)
            any_cycle_win = true;
    }
    EXPECT_TRUE(any_cycle_win);
}

TEST(DataTierTest, FastAndInstrumentedRunsAgreeOnOutputs)
{
    TierFixture fx;
    const runtime::DataTier tier =
        runtime::build_data_tier(fx.session, fx.plan);
    for (const auto& variant : tier.variants) {
        const runtime::VariantRun instrumented = variant.run(11);
        const runtime::VariantRun fast = variant.run_fast(11);
        EXPECT_EQ(instrumented.output, fast.output) << variant.label;
    }
}

TEST(DataTierTest, CalibrationAndAuditsBuildEachInputOnce)
{
    auto builds = std::make_shared<std::atomic<int>>(0);
    TierFixture fx;
    fx.plan.bind_inputs = [bind = fx.plan.bind_inputs, builds](
                              std::uint64_t seed, ArgPack& args,
                              std::vector<std::unique_ptr<Buffer>>& holder) {
        builds->fetch_add(1);
        bind(seed, args, holder);
    };
    const runtime::DataTier tier =
        runtime::build_data_tier(fx.session, fx.plan);
    // No packed plan beats exact in the interpreter's wall clock, and
    // this test needs a packed selection: it counts builds, not time.
    runtime::Tuner tuner(test_doubles::without_wall(tier.variants),
                         runtime::Metric::MeanRelativeError, 90.0,
                         /*check_interval=*/1);

    builds->store(0);
    tuner.calibrate({1, 2, 3});
    EXPECT_EQ(builds->load(), 3);
    ASSERT_NE(tuner.selected_index(), 0);

    // The served run and its exact audit share one build.
    builds->store(0);
    EXPECT_FALSE(tuner.invoke(100).trapped);
    EXPECT_EQ(tuner.stats().quality_checks, 1u);
    EXPECT_EQ(builds->load(), 1);

    // So do a served request and its shadow.
    serve::ServiceConfig config;
    config.num_workers = 1;
    config.monitor.shadow_interval = 1;
    config.monitor.trigger_streak = 1000000;
    serve::ApproxService service(config);
    runtime::VariantFamily family = runtime::data_tier_family(
        fx.session, fx.plan, runtime::Metric::MeanRelativeError, 90.0);
    family.build = [build = family.build](store::CalibrationRecord& record) {
        return test_doubles::without_wall(build(record));
    };
    service.register_family("tier", std::move(family),
                            runtime::Metric::MeanRelativeError, 90.0,
                            {1, 2, 3});
    ASSERT_NE(service.kernel_snapshot("tier").selected, "exact");
    builds->store(0);
    serve::Ticket ticket = service.submit("tier", 100);
    ASSERT_TRUE(ticket.accepted);
    EXPECT_TRUE(ticket.response.get().shadowed);
    EXPECT_EQ(builds->load(), 1);
    service.stop();
}

TEST(DataTierTest, PlanWallCoversItsRepack)
{
    // 64 work-items read the head of a 256k-element input, so repacking
    // the whole input costs far more than the launch: a wall that timed
    // only the launch would read a small fraction of the repack alone.
    constexpr int kLength = 1 << 18;
    const ir::Module module = parser::parse_module(R"(
        __kernel void head(__global float* in, __global float* out) {
            int i = get_global_id(0);
            out[i] = in[i] * 2.0f + 1.0f;
        }
    )");
    runtime::KernelSession session(module, "head", core::CompileOptions{});
    core::LaunchPlan plan;
    plan.config = LaunchConfig::linear(64, 64);
    plan.output_buffer = "out";
    plan.bind_inputs = [](std::uint64_t seed, ArgPack& args,
                          std::vector<std::unique_ptr<Buffer>>& holder) {
        Rng rng(seed);
        holder.push_back(std::make_unique<Buffer>(Buffer::from_floats(
            rng.uniform_vector(kLength, -4.0f, 4.0f))));
        args.buffer("in", *holder.back());
        holder.push_back(std::make_unique<Buffer>(Buffer::zeros_f32(64)));
        args.buffer("out", *holder.back());
    };
    const runtime::DataTier tier = runtime::build_data_tier(session, plan);
    std::size_t packs_in = 0;
    for (std::size_t i = 1; i < tier.plans.size() && packs_in == 0; ++i) {
        for (const auto& assignment : tier.plans[i].assignments) {
            if (assignment.buffer == "in")
                packs_in = i;
        }
    }
    ASSERT_NE(packs_in, 0u);
    const PrecisionAssignment* assignment = nullptr;
    for (const auto& candidate : tier.plans[packs_in].assignments) {
        if (candidate.buffer == "in")
            assignment = &candidate;
    }

    // Minima over interleaved rounds, so a loaded machine slows both
    // sides alike; a launch-only wall is ~100x below the repack.
    const runtime::Input input(3);
    const std::vector<float> values =
        Rng(3).uniform_vector(kLength, -4.0f, 4.0f);
    double wall = std::numeric_limits<double>::infinity();
    double repack = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 5; ++round) {
        const runtime::VariantRun run =
            tier.variants[packs_in].run_fast(input);
        ASSERT_FALSE(run.trapped);
        wall = std::min(wall, run.wall_seconds);

        PackedBuffer packed(assignment->codec, kLength, assignment->quant);
        const auto start = std::chrono::steady_clock::now();
        packed.repack(values, "");
        repack = std::min(
            repack, std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    }
    EXPECT_GE(wall, repack / 4) << tier.variants[packs_in].label;
}

TEST(DataTierTest, StoredPlanPackingAPinnedBufferIsRejected)
{
    const ir::Module module = parser::parse_module(R"(
        __kernel void accum(__global float* in, __global float* out) {
            int i = get_global_id(0);
            out[i] = out[i] + in[i];
        }
    )");
    runtime::KernelSession session(module, "accum",
                                   core::CompileOptions{});
    core::LaunchPlan plan;
    plan.config = LaunchConfig::linear(64, 64);
    plan.output_buffer = "out";

    PrecisionPlan hostile;
    hostile.label = "data[out:bf16]";
    hostile.assignments.push_back({"out", Codec::Bf16, {}});
    PrecisionPlan exact;
    exact.label = "exact";

    const runtime::DataTier tier =
        runtime::rebuild_data_tier(session, plan, {exact, hostile});
    EXPECT_TRUE(tier.variants.empty());  // rejected wholesale

    // An unknown buffer name is rejected the same way.
    PrecisionPlan phantom;
    phantom.label = "data[ghost:int8]";
    phantom.assignments.push_back({"ghost", Codec::Int8, {1.0f, 0.0f}});
    EXPECT_TRUE(runtime::rebuild_data_tier(session, plan, {exact, phantom})
                    .variants.empty());
}

TEST(DataTierTest, WarmRestartRestoresPlansWithZeroResearch)
{
    const support::TempDir dir("data-tier-warm");
    store::ArtifactStore::configure_global(dir.path);
    vm::ProgramCache::global().clear();

    const std::vector<std::uint64_t> seeds = {1, 2, 3};
    std::vector<std::string> cold_labels;
    int cold_selected = 0;
    {
        TierFixture fx;
        const runtime::WarmTuner cold = runtime::warm_tuner(
            runtime::data_tier_family(fx.session, fx.plan,
                                      runtime::Metric::MeanRelativeError,
                                      90.0),
            runtime::Metric::MeanRelativeError, 90.0, seeds);
        EXPECT_FALSE(cold.warm);
        ASSERT_GE(cold.record.plans.size(), 2u);
        for (const auto& plan : cold.record.plans)
            cold_labels.push_back(plan.label);
        cold_selected = cold.tuner->selected_index();
    }
    {
        TierFixture fx;
        const runtime::WarmTuner warm = runtime::warm_tuner(
            runtime::data_tier_family(fx.session, fx.plan,
                                      runtime::Metric::MeanRelativeError,
                                      90.0),
            runtime::Metric::MeanRelativeError, 90.0, seeds);
        EXPECT_TRUE(warm.warm);
        ASSERT_EQ(warm.record.plans.size(), cold_labels.size());
        for (std::size_t i = 0; i < warm.record.plans.size(); ++i)
            EXPECT_EQ(warm.record.plans[i].label, cold_labels[i]);
        EXPECT_EQ(warm.tuner->selected_index(), cold_selected);
        // The restored tuner serves immediately.
        const runtime::VariantRun run = warm.tuner->invoke(5);
        EXPECT_FALSE(run.trapped);
        EXPECT_FALSE(run.output.empty());
    }

    store::ArtifactStore::disable_global();
    vm::ProgramCache::global().clear();
}

}  // namespace
}  // namespace paraprox::data
