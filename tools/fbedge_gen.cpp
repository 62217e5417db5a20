// fbedge_gen — generate a synthetic sampled-session dataset to stdout (or
// a file), one serialized SessionSample per line. Pairs with
// fbedge_analyze, which re-ingests the file and runs the measurement
// pipeline — the same produce/ship/analyze split as the paper's
// production deployment (§2.2.2).
//
// Usage: fbedge_gen [--groups N] [--days D] [--scale S] [--seed X]
//                   [--threads T] [--out FILE]
//
// Values are checked whole: --groups and --days must be integers >= 1,
// --threads an integer >= 0, --scale a number > 0 and --seed an unsigned
// integer; anything else, or a flag without its value, exits 2 with the
// usage line.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "fbedge/fbedge.h"
#include "util/int_flags.h"

using namespace fbedge;

namespace {

struct Options {
  int groups_per_continent = 2;
  int days = 1;
  double scale = 0.2;
  std::uint64_t seed = 2019;
  int threads = 0;  // 0 = hardware concurrency
  std::string out;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--groups N] [--days D] [--scale S] [--seed X] "
               "[--threads T] [--out FILE]\n",
               argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--groups") {
      opts.groups_per_continent = flags::parse_int(next(), 1, usage, argv[0]);
    } else if (arg == "--days") {
      opts.days = flags::parse_int(next(), 1, usage, argv[0]);
    } else if (arg == "--scale") {
      opts.scale = flags::parse_double(next(), std::numeric_limits<double>::denorm_min(),
                                       std::numeric_limits<double>::max(), usage, argv[0]);
    } else if (arg == "--seed") {
      opts.seed = flags::parse_u64(next(), usage, argv[0]);
    } else if (arg == "--threads") {
      opts.threads = flags::parse_int(next(), 0, usage, argv[0]);
    } else if (arg == "--out") {
      opts.out = next();
    } else {
      usage(argv[0]);
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);

  WorldConfig wc;
  wc.seed = opts.seed;
  wc.groups_per_continent = opts.groups_per_continent;
  wc.days = opts.days;
  const World world = build_world(wc);

  DatasetConfig dc;
  dc.seed = opts.seed;
  dc.days = opts.days;
  dc.session_scale = opts.scale;
  DatasetGenerator generator(world, dc);

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!opts.out.empty()) {
    file.open(opts.out);
    if (!file) {
      std::fprintf(stderr, "fbedge_gen: cannot open %s\n", opts.out.c_str());
      return 1;
    }
    out = &file;
  }

  // Serialize each group's sessions into a private buffer on the runtime,
  // then write the buffers in group order — output is byte-identical to a
  // sequential run for any thread count.
  RuntimeOptions runtime;
  runtime.threads = opts.threads;
  RunStats stats;
  const std::vector<std::string> buffers = parallel_map(
      world.groups.size(), runtime,
      [&](std::size_t g) {
        std::string buf;
        generator.generate_group(world.groups[g], [&](const SessionSample& s) {
          buf += serialize_sample(s);
          buf += '\n';
        });
        return buf;
      },
      &stats);

  std::uint64_t sessions = 0;
  for (const std::string& buf : buffers) {
    (*out) << buf;
    for (const char ch : buf) sessions += ch == '\n';
  }
  std::fprintf(stderr, "fbedge_gen: wrote %llu sessions from %zu user groups\n",
               static_cast<unsigned long long>(sessions), world.groups.size());
  stats.print("fbedge_gen");
  return 0;
}
