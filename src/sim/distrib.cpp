#include "sim/distrib.hpp"

#include <sched.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/units.hpp"
#include "telemetry/registry.hpp"

namespace jstream {

namespace {

// ---------------------------------------------------------------------------
// Frame protocol. One frame per worker: a fixed 48-byte header followed by
// `payload_bytes` of payload. kResult payloads are the shard's encoded
// results; kError payloads are the UTF-8 what() of the exception that killed
// the slice. The header travels through the same ByteWriter/ByteReader
// little-endian encoding as the payloads.
// ---------------------------------------------------------------------------

// "JSTDFRM1" read as a little-endian u64.
constexpr std::uint64_t kFrameMagic = 0x314D5246'4454534AULL;
constexpr std::uint32_t kFrameVersion = 2;
constexpr std::uint32_t kFrameKindResult = 1;
constexpr std::uint32_t kFrameKindError = 2;
constexpr std::size_t kFrameHeaderBytes = 48;

struct FrameHeader {
  std::uint32_t kind = kFrameKindResult;
  std::uint64_t cell_begin = 0;
  std::uint64_t cell_count = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_checksum = 0;
};

/// u64 frame field -> size_t count/index, rejecting values that cannot be a
/// cell count (hardened against corrupt or truncated frames).
std::size_t size_from_u64(std::uint64_t value) {
  require(value <= static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max()),
          "frame count field out of range");
  return checked_size(std::bit_cast<std::int64_t>(value));
}

std::vector<std::uint8_t> encode_frame_header(const FrameHeader& header) {
  ByteWriter out;
  out.u64(kFrameMagic);
  out.u32(kFrameVersion);
  out.u32(header.kind);
  out.u64(header.cell_begin);
  out.u64(header.cell_count);
  out.u64(header.payload_bytes);
  out.u64(header.payload_checksum);
  return out.take();
}

FrameHeader decode_frame_header(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  require(in.u64() == kFrameMagic, "shard frame: bad magic");
  require(in.u32() == kFrameVersion, "shard frame: unsupported version");
  FrameHeader header;
  header.kind = in.u32();
  require(header.kind == kFrameKindResult || header.kind == kFrameKindError,
          "shard frame: unknown kind");
  header.cell_begin = in.u64();
  header.cell_count = in.u64();
  header.payload_bytes = in.u64();
  header.payload_checksum = in.u64();
  in.finish();
  return header;
}

// Full-buffer pipe I/O with EINTR handling. write_all returns false on any
// unrecoverable error (the parent died; nothing useful left to do in the
// child). read_all returns false on EOF-before-n (the child died mid-frame).
bool write_all(int fd, const std::uint8_t* data, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += wrote;
    n -= static_cast<std::uint64_t>(wrote);
  }
  return true;
}

bool read_all(int fd, std::uint8_t* data, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t got = ::read(fd, data, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    data += got;
    n -= static_cast<std::uint64_t>(got);
  }
  return true;
}

// ---------------------------------------------------------------------------
// NUMA placement. Topology comes from /sys (no libnuma dependency); binding
// is best-effort — a machine that hides the topology, or a cpuset that
// forbids the target CPUs, degrades to unpinned workers, never to failure.
// ---------------------------------------------------------------------------

std::vector<std::vector<int>> numa_topology() {
  std::vector<std::vector<int>> nodes;
  for (int node = 0;; ++node) {
    const std::string path =
        "/sys/devices/system/node/node" + std::to_string(node) + "/cpulist";
    std::ifstream in(path);
    if (!in) break;
    std::string text;
    std::getline(in, text);
    try {
      nodes.push_back(parse_cpu_list(text));
    } catch (const Error&) {
      return {};  // unparseable topology: treat as unknown
    }
  }
  return nodes;
}

void bind_to_numa_node(std::size_t shard) {
  const std::vector<std::vector<int>> nodes = numa_topology();
  if (nodes.size() < 2) return;  // single-node or unknown: nothing to place
  const std::vector<int>& cpus = nodes[shard % nodes.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  int usable = 0;
  for (const int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) {
      CPU_SET(cpu, &set);
      ++usable;
    }
  }
  if (usable == 0) return;
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Worker / parent halves of the fork.
// ---------------------------------------------------------------------------

void run_worker(int fd, std::size_t shard, ShardRange range,
                ShardEncoder& encoder) noexcept {
  FrameHeader header;
  header.cell_begin = static_cast<std::uint64_t>(range.begin);
  header.cell_count = static_cast<std::uint64_t>(range.size());
  std::vector<std::uint8_t> payload;
  try {
    payload = encoder.encode_slice(shard, range);
    header.kind = kFrameKindResult;
  } catch (const std::exception& error) {
    const char* what = error.what();
    payload.assign(what, what + std::strlen(what));
    header.kind = kFrameKindError;
  } catch (...) {
    const std::string what = "unknown exception";
    payload.assign(what.begin(), what.end());
    header.kind = kFrameKindError;
  }
  header.payload_bytes = static_cast<std::uint64_t>(payload.size());
  header.payload_checksum = xxh64(payload.data(), payload.size());
  const std::vector<std::uint8_t> head = encode_frame_header(header);
  bool ok = write_all(fd, head.data(), head.size());
  ok = ok && write_all(fd, payload.data(), payload.size());
  ::close(fd);
  // _exit, not exit: a forked worker must not run the parent's atexit chain
  // or flush duplicated stdio buffers.
  ::_exit(ok && header.kind == kFrameKindResult ? 0 : 1);
}

/// Reads and validates one shard's frame. Returns false (with `error` set)
/// instead of throwing so the parent can keep draining and reaping the other
/// shards before reporting.
bool read_shard_frame(int fd, ShardRange expected, std::vector<std::uint8_t>& payload,
                      std::string& error) {
  std::uint8_t head[kFrameHeaderBytes];
  if (!read_all(fd, head, sizeof(head))) {
    error = "worker exited without a complete frame";
    return false;
  }
  FrameHeader header;
  try {
    header = decode_frame_header({head, sizeof(head)});
  } catch (const Error& bad) {
    error = bad.what();
    return false;
  }
  payload.resize(size_from_u64(header.payload_bytes));
  if (!read_all(fd, payload.data(), payload.size())) {
    error = "worker frame payload truncated";
    return false;
  }
  if (xxh64(payload.data(), payload.size()) != header.payload_checksum) {
    error = "worker frame payload checksum mismatch";
    return false;
  }
  if (header.kind == kFrameKindError) {
    error = "worker reported: " +
            std::string(payload.begin(), payload.end());
    return false;
  }
  if (size_from_u64(header.cell_begin) != expected.begin ||
      size_from_u64(header.cell_count) != expected.size()) {
    error = "worker frame covers the wrong cell range";
    return false;
  }
  return true;
}

}  // namespace

std::vector<ShardRange> shard_ranges(std::size_t cells, std::size_t shards) {
  if (shards == 0) shards = 1;
  if (shards > cells) shards = cells;
  std::vector<ShardRange> ranges;
  ranges.reserve(shards);
  std::size_t begin = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const std::size_t size = cells / shards + (shard < cells % shards ? 1 : 0);
    ranges.push_back(ShardRange{begin, begin + size});
    begin += size;
  }
  return ranges;
}

std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  std::size_t pos = 0;
  while (pos < text.size()) {
    // One comma-separated token: "N" or "N-M", surrounded by optional space.
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    std::size_t lo = pos;
    while (lo < end && std::isspace(static_cast<unsigned char>(text[lo])) != 0) ++lo;
    std::size_t hi = end;
    while (hi > lo && std::isspace(static_cast<unsigned char>(text[hi - 1])) != 0) --hi;
    if (lo < hi) {
      const std::string token = text.substr(lo, hi - lo);
      const std::size_t dash = token.find('-');
      try {
        if (dash == std::string::npos) {
          std::size_t used = 0;
          const int cpu = std::stoi(token, &used);
          require(used == token.size() && cpu >= 0, "bad cpu list token: " + token);
          cpus.push_back(cpu);
        } else {
          std::size_t used_first = 0;
          std::size_t used_last = 0;
          const std::string first_text = token.substr(0, dash);
          const std::string last_text = token.substr(dash + 1);
          const int first = std::stoi(first_text, &used_first);
          const int last = std::stoi(last_text, &used_last);
          require(used_first == first_text.size() && used_last == last_text.size() &&
                      first >= 0 && last >= first,
                  "bad cpu list range: " + token);
          for (int cpu = first; cpu <= last; ++cpu) cpus.push_back(cpu);
        }
      } catch (const std::invalid_argument&) {
        throw Error("bad cpu list token: " + token);
      } catch (const std::out_of_range&) {
        throw Error("bad cpu list token: " + token);
      }
    }
    pos = end + 1;
  }
  return cpus;
}

std::vector<ShardPayload> run_forked_shards(std::size_t cells, std::size_t processes,
                                            bool numa_bind, ShardEncoder& encoder) {
  require(cells > 0, "distributed run needs at least one cell");
  const std::vector<ShardRange> ranges =
      shard_ranges(cells, processes == 0 ? 2 : processes);
  telemetry::global_registry().counter("distrib.runs").add();
  telemetry::global_registry()
      .counter("distrib.shards")
      .add(checked_index(ranges.size()));

  struct Worker {
    pid_t pid = -1;
    int fd = -1;
  };
  std::vector<Worker> workers;
  workers.reserve(ranges.size());

  // Fork every worker before reading any frame: a pipe holds ~64 KB, so a
  // worker with a bigger payload blocks in write until the parent drains it,
  // and the parent drains in shard order — all shards still *compute*
  // concurrently, only the streaming back is ordered.
  for (std::size_t shard = 0; shard < ranges.size(); ++shard) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      for (const Worker& w : workers) ::close(w.fd);
      for (const Worker& w : workers) ::waitpid(w.pid, nullptr, 0);
      throw Error("distributed run: pipe() failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      for (const Worker& w : workers) ::close(w.fd);
      for (const Worker& w : workers) ::waitpid(w.pid, nullptr, 0);
      throw Error("distributed run: fork() failed");
    }
    if (pid == 0) {
      // Worker: release the parent halves of every pipe created so far, pin
      // if asked, run the slice, stream the frame, and _exit.
      for (const Worker& w : workers) ::close(w.fd);
      ::close(fds[0]);
      if (numa_bind) bind_to_numa_node(shard);
      run_worker(fds[1], shard, ranges[shard], encoder);  // does not return
    }
    ::close(fds[1]);
    workers.push_back(Worker{pid, fds[0]});
  }

  std::vector<ShardPayload> payloads(ranges.size());
  std::string first_error;
  std::size_t first_error_shard = 0;
  for (std::size_t shard = 0; shard < ranges.size(); ++shard) {
    payloads[shard].range = ranges[shard];
    std::string error;
    if (!read_shard_frame(workers[shard].fd, ranges[shard], payloads[shard].bytes,
                          error) &&
        first_error.empty()) {
      first_error = error;
      first_error_shard = shard;
    }
    ::close(workers[shard].fd);
  }
  for (std::size_t shard = 0; shard < ranges.size(); ++shard) {
    int status = 0;
    const pid_t reaped = ::waitpid(workers[shard].pid, &status, 0);
    const bool clean = reaped == workers[shard].pid && WIFEXITED(status) &&
                       WEXITSTATUS(status) == 0;
    if (!clean && first_error.empty()) {
      first_error = "worker terminated abnormally";
      first_error_shard = shard;
    }
  }
  if (!first_error.empty()) {
    throw Error("distributed run: shard " + std::to_string(first_error_shard) +
                " failed: " + first_error);
  }
  return payloads;
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader.
// ---------------------------------------------------------------------------

void ByteWriter::u32(std::uint32_t value) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + sizeof(value));
  std::memcpy(buffer_.data() + at, &value, sizeof(value));
}

void ByteWriter::u64(std::uint64_t value) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + sizeof(value));
  std::memcpy(buffer_.data() + at, &value, sizeof(value));
}

void ByteWriter::i64(std::int64_t value) { u64(std::bit_cast<std::uint64_t>(value)); }

void ByteWriter::f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

void ByteWriter::boolean(bool value) { u64(value ? 1 : 0); }

void ByteWriter::doubles(std::span<const double> values) {
  u64(static_cast<std::uint64_t>(values.size()));
  if (values.empty()) return;
  const std::size_t at = buffer_.size();
  const std::size_t bytes = values.size() * sizeof(double);
  buffer_.resize(at + bytes);
  std::memcpy(buffer_.data() + at, values.data(), bytes);
}

std::uint32_t ByteReader::u32() {
  require(remaining() >= sizeof(std::uint32_t), "frame truncated");
  std::uint32_t value = 0;
  std::memcpy(&value, data_.data() + offset_, sizeof(value));
  offset_ += sizeof(value);
  return value;
}

std::uint64_t ByteReader::u64() {
  require(remaining() >= sizeof(std::uint64_t), "frame truncated");
  std::uint64_t value = 0;
  std::memcpy(&value, data_.data() + offset_, sizeof(value));
  offset_ += sizeof(value);
  return value;
}

std::int64_t ByteReader::i64() { return std::bit_cast<std::int64_t>(u64()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

bool ByteReader::boolean() {
  const std::uint64_t value = u64();
  require(value <= 1, "frame boolean field out of range");
  return value != 0;
}

std::vector<double> ByteReader::doubles() {
  const std::size_t count = size_from_u64(u64());
  require(count <= remaining() / sizeof(double), "frame truncated");
  std::vector<double> values(count);
  if (count > 0) {
    std::memcpy(values.data(), data_.data() + offset_, count * sizeof(double));
    offset_ += count * sizeof(double);
  }
  return values;
}

void ByteReader::finish() const {
  require(remaining() == 0, "frame has trailing bytes");
}

// ---------------------------------------------------------------------------
// RunMetrics encoding + digests.
// ---------------------------------------------------------------------------

void encode_run_metrics(ByteWriter& out, const RunMetrics& metrics) {
  out.i64(metrics.slots_run);
  out.u64(static_cast<std::uint64_t>(metrics.per_user.size()));
  for (const UserTotals& user : metrics.per_user) {
    out.f64(user.trans_mj);
    out.f64(user.tail_mj);
    out.f64(user.rebuffer_s);
    out.f64(user.delivered_kb);
    out.i64(user.session_slots);
    out.i64(user.tx_slots);
    out.boolean(user.playback_finished);
  }
  out.doubles(metrics.slot_fairness);
  out.doubles(metrics.slot_energy_mj);
  out.doubles(metrics.rebuffer_samples_s);
}

RunMetrics decode_run_metrics(ByteReader& in) {
  RunMetrics metrics;
  metrics.slots_run = in.i64();
  const std::size_t users = size_from_u64(in.u64());
  // Each serialized user occupies 7 fixed-width fields; reject counts the
  // remaining payload cannot possibly hold before reserving.
  require(users <= in.remaining() / (7 * sizeof(std::uint64_t)),
          "frame truncated");
  metrics.per_user.resize(users);
  for (UserTotals& user : metrics.per_user) {
    user.trans_mj = in.f64();
    user.tail_mj = in.f64();
    user.rebuffer_s = in.f64();
    user.delivered_kb = in.f64();
    user.session_slots = in.i64();
    user.tx_slots = in.i64();
    user.playback_finished = in.boolean();
  }
  metrics.slot_fairness = in.doubles();
  metrics.slot_energy_mj = in.doubles();
  metrics.rebuffer_samples_s = in.doubles();
  return metrics;
}

std::uint64_t metrics_digest(const RunMetrics& metrics) {
  ByteWriter out;
  encode_run_metrics(out, metrics);
  return xxh64(out.bytes().data(), out.bytes().size());
}

std::uint64_t metrics_digest(std::span<const RunMetrics> metrics) {
  ByteWriter out;
  out.u64(static_cast<std::uint64_t>(metrics.size()));
  for (const RunMetrics& m : metrics) encode_run_metrics(out, m);
  return xxh64(out.bytes().data(), out.bytes().size());
}

// ---------------------------------------------------------------------------
// Batch runner.
// ---------------------------------------------------------------------------

namespace {

class BatchShardEncoder final : public ShardEncoder {
 public:
  BatchShardEncoder(std::span<const ExperimentSpec> specs,
                    const CampaignOptions& campaign)
      : specs_(specs), campaign_(campaign) {}

  std::vector<std::uint8_t> encode_slice(std::size_t /*shard*/,
                                         ShardRange range) override {
    const std::vector<RunMetrics> results =
        run_campaign(specs_.subspan(range.begin, range.size()), campaign_);
    ByteWriter out;
    for (const RunMetrics& metrics : results) encode_run_metrics(out, metrics);
    return out.take();
  }

 private:
  std::span<const ExperimentSpec> specs_;
  const CampaignOptions& campaign_;
};

}  // namespace

std::vector<RunMetrics> run_campaign_distributed(std::span<const ExperimentSpec> specs,
                                                 const DistribOptions& options) {
  if (specs.empty()) return {};
  BatchShardEncoder encoder(specs, options.campaign);
  const std::vector<ShardPayload> payloads =
      run_forked_shards(specs.size(), options.processes, options.numa_bind, encoder);
  std::vector<RunMetrics> merged(specs.size());
  for (const ShardPayload& shard : payloads) {
    ByteReader in(shard.bytes);
    for (std::size_t i = shard.range.begin; i < shard.range.end; ++i) {
      merged[i] = decode_run_metrics(in);
    }
    in.finish();
  }
  return merged;
}

}  // namespace jstream
