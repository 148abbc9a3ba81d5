#include "session/arrival.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& hash, double value) noexcept {
  fnv_mix(hash, std::bit_cast<std::uint64_t>(value));
}

/// Poisson counts via per-slot child streams: the count for slot n never
/// depends on which other slots were queried first.
class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(double rate_per_slot, std::uint64_t seed, std::uint64_t salt)
      : rate_(rate_per_slot), root_(Rng(seed).split(kArrivalRootStream + salt)) {}

  [[nodiscard]] std::string name() const override { return "poisson"; }

  [[nodiscard]] std::int64_t arrivals_at(std::int64_t slot) const override {
    require(slot >= 0, "slot must be non-negative");
    Rng slot_rng = root_.split(static_cast<std::uint64_t>(slot));
    return poisson_sample(slot_rng, rate_);
  }

 private:
  double rate_;
  Rng root_;
};

/// Replays an explicit per-slot count trace; slots beyond it see 0.
class TraceArrivals final : public ArrivalProcess {
 public:
  explicit TraceArrivals(std::vector<std::int64_t> counts)
      : counts_(std::move(counts)) {}

  [[nodiscard]] std::string name() const override { return "trace"; }

  [[nodiscard]] std::int64_t arrivals_at(std::int64_t slot) const override {
    require(slot >= 0, "slot must be non-negative");
    const auto index = checked_size(slot);
    return index < counts_.size() ? counts_[index] : 0;
  }

 private:
  std::vector<std::int64_t> counts_;
};

}  // namespace

void validate(const ArrivalConfig& config) {
  switch (config.kind) {
    case ArrivalKind::kNone:
      return;
    case ArrivalKind::kPoisson:
      // An infinite rate would pass the sign check and throw only inside
      // the sampler at the first step.
      require(std::isfinite(config.rate_per_slot), "arrival rate must be finite");
      require(config.rate_per_slot >= 0.0, "arrival rate must be non-negative");
      return;
    case ArrivalKind::kTrace:
      for (std::int64_t count : config.trace_counts) {
        require(count >= 0, "arrival trace counts must be non-negative");
      }
      return;
  }
  throw Error("unknown arrival kind");
}

std::uint64_t arrival_fingerprint(const ArrivalConfig& config) {
  if (!config.active()) return 0;
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, static_cast<std::uint64_t>(config.kind));
  fnv_mix(hash, config.rate_per_slot);
  fnv_mix(hash, config.salt);
  fnv_mix(hash, static_cast<std::uint64_t>(config.trace_counts.size()));
  for (std::int64_t count : config.trace_counts) {
    fnv_mix(hash, static_cast<std::uint64_t>(count));
  }
  // 0 is reserved for "inactive".
  return hash == 0 ? 1 : hash;
}

std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalConfig& config,
                                                     std::uint64_t seed) {
  validate(config);
  switch (config.kind) {
    case ArrivalKind::kNone:
      return nullptr;
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonArrivals>(config.rate_per_slot, seed,
                                               config.salt);
    case ArrivalKind::kTrace:
      return std::make_unique<TraceArrivals>(config.trace_counts);
  }
  throw Error("unknown arrival kind");
}

VideoSession draw_session_content(const ScenarioConfig& cell, std::uint64_t salt,
                                  std::int64_t arrival_index) {
  require(arrival_index >= 0, "arrival index must be non-negative");
  Rng rng = Rng(cell.seed)
                .split(kSessionRootStream + salt)
                .split(static_cast<std::uint64_t>(arrival_index));
  // Same draw family as build_endpoints: size first, then the bitrate
  // profile (uniform for CBR, a dedicated substream for the VBR walk).
  const double size_kb = mb_to_kb(rng.uniform(cell.video_min_mb, cell.video_max_mb));
  std::shared_ptr<const BitrateProfile> bitrate;
  if (!cell.vbr) {
    bitrate = std::make_shared<ConstantBitrate>(
        rng.uniform(cell.bitrate_min_kbps, cell.bitrate_max_kbps));
  } else {
    RandomWalkBitrate::Params params;
    params.min_kbps = cell.bitrate_min_kbps;
    params.max_kbps = cell.bitrate_max_kbps;
    params.step_kbps = cell.vbr_step_kbps;
    params.hold_slots = cell.vbr_hold_slots;
    bitrate = std::make_shared<RandomWalkBitrate>(params, rng.split(0x7662),
                                                  cell.max_slots);
  }
  return VideoSession(size_kb, std::move(bitrate), cell.slot.tau_s);
}

std::int64_t poisson_sample(Rng& rng, double lambda) {
  require(lambda >= 0.0 && std::isfinite(lambda),
          "Poisson intensity must be finite and non-negative");
  // Knuth's product method is exact but needs exp(-lambda) > 0 in double
  // precision; splitting lambda into bounded chunks keeps each factor well
  // above underflow, and the sum of independent Poissons is Poisson(sum).
  constexpr double kChunk = 32.0;
  std::int64_t count = 0;
  double remaining = lambda;
  while (remaining > 0.0) {
    const double chunk = remaining > kChunk ? kChunk : remaining;
    remaining -= chunk;
    const double threshold = std::exp(-chunk);
    double product = rng.uniform();
    while (product > threshold) {
      ++count;
      product *= rng.uniform();
    }
  }
  return count;
}

}  // namespace jstream
