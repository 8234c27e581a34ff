/// @file
/// On-disk record framing for the artifact store.
///
/// Every artifact file is one framed record: a fixed header (magic,
/// format version, artifact kind, payload size, payload checksum)
/// followed by the payload bytes.  Readers treat *any* deviation — short
/// file, wrong magic, unknown version or kind, size mismatch, checksum
/// mismatch — as a plain cache miss, never an error: a corrupted or stale
/// store must not be able to crash a process or poison its results.
///
/// Payloads are built with ByteWriter and decoded with ByteReader, a
/// bounds-checked cursor that latches a failure flag instead of throwing,
/// so decoders can run to completion on garbage and report one verdict.

#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace paraprox::store {

/// Bumped whenever any payload layout changes; records written by other
/// versions are misses (the issue's invalidation rule: version mismatch
/// never deserializes).
constexpr std::uint32_t kFormatVersion = 2;

/// "PPXS" little-endian.
constexpr std::uint32_t kMagic = 0x53585050u;

/// What a record holds.  Values are part of the on-disk format.
enum class ArtifactKind : std::uint32_t {
    Program = 1,      ///< vm::Program bytecode (canonical + fast streams).
    Table = 2,        ///< memo::LookupTable + TableConfig bit assignment.
    /// A variant family's calibration: VariantProfile set + fallback
    /// order + selection, plus the optional section (a pipeline's joint
    /// configs or a data tier's precision plans) that rebuilds the
    /// family's variants without a search.  (4 and 5 named retired
    /// per-family kinds; they stay unused.)
    Calibration = 3,
    /// Fleet-shared calibration published by the scale-out plane: a
    /// monotonically versioned CalibrationState plus the quarantine
    /// verdicts in force when it was published.  Replicas adopt a newer
    /// version instead of recalibrating redundantly.  (7 named the
    /// retired drift-lease record; it stays unused.)
    FleetCalibration = 6,
};

/// FNV-1a over @p size bytes, seeded so it can be chained.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// Little-endian payload builder.
class ByteWriter {
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f32(float v);
    void f64(double v);
    void str(const std::string& v);

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian cursor.  Reads past the end (or absurd
/// lengths) return zero values and latch ok() == false; decoders check
/// ok() once at the end.
class ByteReader {
  public:
    ByteReader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    float f32();
    double f64();
    std::string str();

    /// A declared element count for a vector about to be read.  Fails
    /// unless `count * min_element_bytes` still fits in the remaining
    /// input, so corrupt counts cannot trigger huge allocations.
    std::size_t count(std::size_t min_element_bytes);

    bool ok() const { return !failed_; }
    bool at_end() const { return !failed_ && pos_ == size_; }

  private:
    bool take(std::size_t n);

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/// Frame @p payload as a complete record of @p kind.
std::vector<std::uint8_t> encode_record(
    ArtifactKind kind, const std::vector<std::uint8_t>& payload);

/// Unframe @p file; nullopt (a miss) on any malformed header, kind
/// mismatch, or checksum failure.
std::optional<std::vector<std::uint8_t>> decode_record(
    const std::vector<std::uint8_t>& file, ArtifactKind expected);

/// Header fields of a record, for inspection tools.
struct RecordInfo {
    std::uint32_t version = 0;
    ArtifactKind kind{};
    std::uint64_t payload_size = 0;
    bool valid = false;  ///< Full validation incl. checksum.
};
RecordInfo probe_record(const std::vector<std::uint8_t>& file);

/// Whole-file read; nullopt if the file is missing or unreadable.
std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::filesystem::path& path);

/// Atomic write: temp file in the same directory + rename, so readers
/// only ever observe complete records.  Returns false on any filesystem
/// error (the store degrades to write-through-nothing).
bool write_file_atomic(const std::filesystem::path& path,
                       const std::vector<std::uint8_t>& bytes);

}  // namespace paraprox::store
