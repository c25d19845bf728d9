// olev_replay: deterministic headless replay of an olevd request journal.
//
// Reads a journal written by `olevd --journal`, reconstructs the pricing
// engine from the journal header (mode, shape, epsilon, caps), applies every
// journaled request in log order, and folds the serialized ScheduleMsg bytes
// of each reply into an FNV-1a 64 hash.  The journal holds exactly the
// requests the daemon applied, in apply order, so the replay reaches the
// daemon's schedule; and because the engine is deterministic, two replays of
// the same journal -- or a replay against the hash captured from a previous
// one -- must agree bit-for-bit.  The CI persist job gates on exactly that
// via --expect-hash.
//
//   $ ./olev_replay --journal j.bin
//   $ ./olev_replay --journal j.bin --expect-hash 0x1234abcd5678ef90
//
// Cost-function knobs default to olevd's defaults; pass the same overrides
// that were given to the server, since the cost parameters are not part of
// the journal header (only the game shape is).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cost.h"
#include "core/pricing_engine.h"
#include "net/message.h"
#include "obs/strings.h"
#include "persist/journal.h"
#include "util/config.h"
#include "util/quantity.h"

namespace {

struct Options {
  std::string journal_path;
  std::optional<std::uint64_t> expect_hash;  // unset = no gate
  // Section cost knobs; defaults mirror olevd's.
  double beta = 5.0;
  double alpha = 0.875;
  double p_ref_kw = 40.0;
  double p_line_kw = 40.0;
  double overload_weight = 1.0;
};

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --journal PATH [options]\n"
      << "  --journal PATH       write-ahead journal from olevd --journal\n"
      << "  --expect-hash H      exit 1 unless the replay output hash equals\n"
      << "                       H (hex, with or without 0x prefix)\n"
      << "  --beta X --alpha X --p-ref X --p-line X --overload-weight X\n"
      << "                       section cost parameters (must match the\n"
      << "                       server that wrote the journal)\n";
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    }
    if (i + 1 >= argc) {
      std::cerr << "olev_replay: " << arg << " needs a value\n";
      return false;
    }
    // A numeric value must parse whole: a malformed one is a usage error.
    bool bad_number = false;
    auto next_d = [&]() {
      const auto value = olev::util::parse_double(argv[++i]);
      bad_number = !value;
      return value.value_or(0.0);
    };
    if (arg == "--journal") {
      options.journal_path = argv[++i];
    } else if (arg == "--expect-hash") {
      options.expect_hash =
          olev::util::parse_uint(argv[++i], UINT64_MAX, /*base=*/16);
      bad_number = !options.expect_hash;
    } else if (arg == "--beta") {
      options.beta = next_d();
    } else if (arg == "--alpha") {
      options.alpha = next_d();
    } else if (arg == "--p-ref") {
      options.p_ref_kw = next_d();
    } else if (arg == "--p-line") {
      options.p_line_kw = next_d();
    } else if (arg == "--overload-weight") {
      options.overload_weight = next_d();
    } else {
      std::cerr << "olev_replay: unknown option " << arg << "\n";
      usage(argv[0]);
      return false;
    }
    if (bad_number) {
      std::cerr << "olev_replay: bad value '" << argv[i] << "' for " << arg
                << "\n";
      return false;
    }
  }
  if (options.journal_path.empty()) {
    std::cerr << "olev_replay: --journal is required\n";
    usage(argv[0]);
    return false;
  }
  return true;
}

// FNV-1a 64 over the serialized reply bytes, folded across the whole replay.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t hash,
                    const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= kFnvPrime;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return 2;

  try {
    const olev::persist::JournalData journal =
        olev::persist::read_journal(options.journal_path);

    olev::core::SectionCost cost(
        std::make_unique<olev::core::NonlinearPricing>(
            options.beta, options.alpha, options.p_ref_kw),
        olev::core::OverloadCost{options.overload_weight},
        olev::util::kw(options.p_line_kw));

    olev::core::EngineConfig engine_config;
    engine_config.players = journal.header.players;
    engine_config.sections = journal.header.sections;
    engine_config.epsilon = journal.header.epsilon;
    engine_config.caps_kw = journal.header.caps_kw;
    engine_config.mode = journal.header.mode == 1
                             ? olev::core::EngineMode::kMeanField
                             : olev::core::EngineMode::kExact;
    olev::core::PricingEngine engine(std::move(cost), engine_config);

    std::uint64_t hash = kFnvOffset;
    std::uint64_t replayed = 0;
    for (const olev::persist::JournalRecord& record : journal.records) {
      const olev::core::PricingEngine::Applied& applied =
          engine.apply(record.player, record.total_kw);
      // Reconstruct the reply olevd sent for this request.  Phase timings
      // are wall-clock noise, not game state; they are zeroed so the hash
      // covers exactly the deterministic outputs (allocation + payment +
      // routing echoes).
      olev::net::ScheduleMsg reply;
      reply.player = record.player;
      reply.round = record.round;
      reply.row_kw = applied.row;
      reply.payment = applied.payment;
      reply.trace_id = record.trace_id;
      hash = fnv1a(hash, olev::net::serialize(reply));
      ++replayed;
    }

    const std::string hash_hex = hex64(hash);
    std::string out = "{\n";
    out += "  \"journal\": \"" + options.journal_path + "\",\n";
    out += "  \"mode\": \"";
    out += journal.header.mode == 1 ? "meanfield" : "exact";
    out += "\",\n";
    out += "  \"players\": " + std::to_string(journal.header.players) + ",\n";
    out +=
        "  \"sections\": " + std::to_string(journal.header.sections) + ",\n";
    out += "  \"records\": " + std::to_string(journal.records.size()) + ",\n";
    out += "  \"truncated\": ";
    out += journal.truncated ? "true" : "false";
    out += ",\n";
    out += "  \"replayed\": " + std::to_string(replayed) + ",\n";
    out += "  \"updates\": " + std::to_string(engine.updates()) + ",\n";
    out += "  \"converged\": ";
    out += engine.converged() ? "true" : "false";
    out += ",\n";
    out += "  \"residual\": " + olev::obs::format_double(engine.residual()) +
           ",\n";
    out += "  \"output_hash\": \"" + hash_hex + "\"\n}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);

    if (options.expect_hash && *options.expect_hash != hash) {
      std::cerr << "olev_replay: HASH MISMATCH: got " << hash_hex
                << " expected " << hex64(*options.expect_hash) << "\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "olev_replay: fatal: " << error.what() << "\n";
    return 1;
  }
}
