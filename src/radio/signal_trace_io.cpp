#include "radio/signal_trace_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/units.hpp"

namespace jstream {

std::vector<double> load_signal_trace(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open signal trace: " + path);
  std::vector<double> trace;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Trim whitespace; skip blanks and comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(line.substr(first), &consumed);
    } catch (const std::exception&) {
      throw Error(path + ":" + std::to_string(line_number) + ": not a number: " + line);
    }
    const auto rest = line.find_first_not_of(" \t\r", first + consumed);
    require(rest == std::string::npos,
            path + ":" + std::to_string(line_number) + ": trailing garbage: " + line);
    trace.push_back(value);
  }
  require(!trace.empty(), "signal trace is empty: " + path);
  return trace;
}

void save_signal_trace(const std::string& path, const std::vector<double>& trace_dbm) {
  require(!trace_dbm.empty(), "refusing to write an empty trace");
  std::ofstream out(path);
  require(out.good(), "cannot open signal trace for writing: " + path);
  out << "# jstream RSSI trace, one dBm sample per slot\n";
  out.precision(17);
  for (double value : trace_dbm) out << value << '\n';
  require(out.good(), "trace write failed: " + path);
}

std::vector<double> record_signal_trace(SignalModel& model, std::int64_t slots) {
  require(slots > 0, "need at least one slot to record");
  std::vector<double> trace;
  trace.reserve(checked_size(slots));
  for (std::int64_t slot = 0; slot < slots; ++slot) {
    trace.push_back(model.signal_dbm(slot));
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Binary trace-set files.
// ---------------------------------------------------------------------------

namespace {

// On-disk header, 64 bytes, little-endian fields at fixed offsets. The
// payload (the slot-major users x slots double signal matrix) starts at byte
// 64, which keeps it 8-byte aligned inside the page-aligned mapping.
constexpr char kTraceSetMagic[8] = {'J', 'S', 'T', 'R', 'T', 'R', 'C', '1'};
constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kHeaderChecksumOffset = 56;

struct HeaderFields {
  std::uint32_t version = 0;
  std::uint32_t endian_tag = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t users = 0;
  std::int64_t slots = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
  std::uint64_t header_checksum = 0;
};

template <typename Field>
void put_field(unsigned char* header, std::size_t offset, Field value) {
  std::memcpy(header + offset, &value, sizeof(value));
}

template <typename Field>
void get_field(const unsigned char* header, std::size_t offset, Field& value) {
  std::memcpy(&value, header + offset, sizeof(value));
}

void encode_header(unsigned char (&header)[kHeaderBytes], const HeaderFields& f) {
  std::memset(header, 0, sizeof(header));
  std::memcpy(header, kTraceSetMagic, sizeof(kTraceSetMagic));
  put_field(header, 8, f.version);
  put_field(header, 12, f.endian_tag);
  put_field(header, 16, f.fingerprint);
  put_field(header, 24, f.users);
  put_field(header, 32, f.slots);
  put_field(header, 40, f.payload_bytes);
  put_field(header, 48, f.payload_checksum);
  put_field(header, kHeaderChecksumOffset, xxh64(header, kHeaderChecksumOffset));
}

/// Validates everything a 64-byte header can answer for on its own: magic,
/// schema version, endianness, self-checksum, and dimension/payload-size
/// consistency against the actual file size. Throws TraceFileError.
HeaderFields validate_header(const std::string& path,
                             const unsigned char (&header)[kHeaderBytes],
                             std::uint64_t file_bytes) {
  const auto reject = [&](const char* why) -> void {
    throw TraceFileError(path + ": " + why);
  };
  if (std::memcmp(header, kTraceSetMagic, sizeof(kTraceSetMagic)) != 0) {
    reject("not a jstream trace-set file (bad magic)");
  }
  HeaderFields f;
  get_field(header, 8, f.version);
  get_field(header, 12, f.endian_tag);
  get_field(header, 16, f.fingerprint);
  get_field(header, 24, f.users);
  get_field(header, 32, f.slots);
  get_field(header, 40, f.payload_bytes);
  get_field(header, 48, f.payload_checksum);
  get_field(header, kHeaderChecksumOffset, f.header_checksum);
  if (f.header_checksum != xxh64(header, kHeaderChecksumOffset)) {
    reject("header checksum mismatch (corrupt or truncated header)");
  }
  if (f.version != kTraceSetFileVersion) reject("unsupported schema version");
  if (f.endian_tag != kEndianTag) reject("foreign endianness");
  if (f.users == 0 || f.slots <= 0) reject("degenerate dimensions");
  const std::uint64_t expected_payload =
      sizeof(double) * f.users * static_cast<std::uint64_t>(f.slots);
  if (f.payload_bytes != expected_payload) {
    reject("payload size disagrees with dimensions");
  }
  if (file_bytes != kHeaderBytes + f.payload_bytes) {
    reject("file size disagrees with header (truncated or padded)");
  }
  return f;
}

std::uint64_t file_size_or_throw(const std::string& path, int fd) {
  struct stat st{};
  require(::fstat(fd, &st) == 0, "cannot stat trace-set file: " + path);
  require(st.st_size >= 0, "negative trace-set file size: " + path);
  return static_cast<std::uint64_t>(st.st_size);
}

/// RAII mmap of a whole file; releases on destruction unless adopted.
class FileMapping {
 public:
  FileMapping(const std::string& path, int fd, std::size_t bytes) : bytes_(bytes) {
    void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    require(map != MAP_FAILED, "mmap failed for trace-set file: " + path);
    base_ = map;
  }
  ~FileMapping() {
    if (base_ != nullptr) ::munmap(base_, bytes_);
  }
  FileMapping(const FileMapping&) = delete;
  FileMapping& operator=(const FileMapping&) = delete;

  [[nodiscard]] const unsigned char* bytes() const noexcept {
    return static_cast<const unsigned char*>(base_);
  }

  /// Transfers ownership into a shared keepalive handle.
  [[nodiscard]] std::shared_ptr<const void> release() noexcept {
    void* base = base_;
    const std::size_t bytes = bytes_;
    base_ = nullptr;
    return {base, [bytes](void* p) { ::munmap(p, bytes); }};
  }

 private:
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Process-unique temp suffix counter (concurrent spills of different keys —
/// or even the same key from racing shards — must never share a temp file).
std::atomic<std::uint64_t> g_temp_serial{0};

/// Closes the descriptor on every exit path (mmap keeps the mapping alive
/// independently of the fd, so closing right after FileMapping is correct).
class FdGuard {
 public:
  explicit FdGuard(int fd) noexcept : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_;
};

}  // namespace

void save_trace_set(const std::string& path, const SignalTraceSet& set,
                    std::uint64_t fingerprint) {
  const std::size_t matrix_bytes = set.total_bytes();

  HeaderFields f;
  f.version = kTraceSetFileVersion;
  f.endian_tag = kEndianTag;
  f.fingerprint = fingerprint;
  f.users = set.users();
  f.slots = set.slots();
  f.payload_bytes = matrix_bytes;
  f.payload_checksum = xxh64(set.signal_data(), matrix_bytes);
  unsigned char header[kHeaderBytes];
  encode_header(header, f);

  // Atomic-by-rename: a crash or a racing reader never observes a partial
  // file, and concurrent writers of the same key each complete a private temp
  // file before renaming (last rename wins; the payloads are bit-identical by
  // the key's determinism guarantee, so the winner is irrelevant).
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(g_temp_serial.fetch_add(1));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    require(out.good(), "cannot open trace-set temp file for writing: " + temp);
    const auto write_bytes = [&](const void* data, std::size_t bytes) {
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(bytes));
    };
    write_bytes(header, sizeof(header));
    write_bytes(set.signal_data(), matrix_bytes);
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(temp.c_str());
      throw Error("trace-set write failed: " + temp);
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    throw Error("cannot move trace-set into place: " + path);
  }
}

TraceSetFileInfo probe_trace_set(const std::string& path) {
  const FdGuard fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  require(fd.fd() >= 0, "cannot open trace-set file: " + path);
  const std::uint64_t file_bytes = file_size_or_throw(path, fd.fd());
  unsigned char header[kHeaderBytes];
  if (file_bytes < kHeaderBytes ||
      ::pread(fd.fd(), header, kHeaderBytes, 0) !=
          static_cast<ssize_t>(kHeaderBytes)) {
    throw TraceFileError(path + ": shorter than a trace-set header");
  }
  const HeaderFields f = validate_header(path, header, file_bytes);
  TraceSetFileInfo info;
  info.version = f.version;
  info.fingerprint = f.fingerprint;
  info.users = f.users;
  info.slots = f.slots;
  info.payload_bytes = f.payload_bytes;
  return info;
}

std::shared_ptr<const SignalTraceSet> load_trace_set(
    const std::string& path, std::uint64_t expected_fingerprint) {
  const FdGuard fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  require(fd.fd() >= 0, "cannot open trace-set file: " + path);
  const std::uint64_t file_bytes = file_size_or_throw(path, fd.fd());
  if (file_bytes < kHeaderBytes) {
    throw TraceFileError(path + ": shorter than a trace-set header");
  }
  FileMapping mapping(path, fd.fd(), file_bytes);

  unsigned char header[kHeaderBytes];
  std::memcpy(header, mapping.bytes(), kHeaderBytes);
  const HeaderFields f = validate_header(path, header, file_bytes);
  if (f.fingerprint != expected_fingerprint) {
    throw TraceFileError(path + ": trace-key fingerprint mismatch");
  }
  const unsigned char* payload = mapping.bytes() + kHeaderBytes;
  if (xxh64(payload, f.payload_bytes) != f.payload_checksum) {
    throw TraceFileError(path + ": payload checksum mismatch (corrupt file)");
  }
  const auto* signal = static_cast<const double*>(static_cast<const void*>(payload));
  return SignalTraceSet::adopt_mapping(f.users, f.slots, mapping.release(), signal);
}

}  // namespace jstream
