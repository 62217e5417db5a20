// §3.2.3 validation sweep (the paper used NS3; this uses the built-in
// packet-level TCP simulator): 15,840 configurations varying bottleneck
// bandwidth (0.5-5 Mbps), round-trip propagation delay (20-200 ms),
// initial cwnd (1-50 packets), and transfer size (1-500 packets).
//
// For every configuration whose transfer can test for the bottleneck rate
// (Gtestable > Gbottleneck), the estimated delivery rate must never
// overestimate the bottleneck; the paper reports a 99th-percentile
// relative error (Gbottleneck - G) / Gbottleneck of 0.066.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "goodput/ideal_model.h"
#include "goodput/tmodel.h"
#include "stats/quantiles.h"
#include "tcp/tcp.h"

using namespace fbedge;

namespace {

constexpr Bytes kMss = 1440;

struct Config {
  double bottleneck;
  double rtt;
  int iw;
  int size;
};

struct Result {
  bool testable{false};
  double relative_error{0};
};

Result run(const Config& c) {
  Simulator sim;
  TcpConfig tcp;
  tcp.initial_cwnd = c.iw;
  tcp.delayed_acks = false;  // matches the paper's NS3 setup (footnote 7)
  LinkConfig forward{.rate = c.bottleneck, .delay = c.rtt / 2,
                     .queue_capacity = 4 << 20};
  TcpConnection conn(sim, tcp, forward, {.rate = 0, .delay = c.rtt / 2});

  Result out;
  TransferReport report;
  bool completed = false;
  conn.handshake();
  conn.sender().write(static_cast<Bytes>(c.size) * kMss, [&](const TransferReport& r) {
    report = r;
    completed = true;
  });
  sim.run_until(3600.0);
  if (!completed) return out;

  TxnTiming txn{report.adjusted_bytes(), report.adjusted_duration(), report.wnic,
                report.min_rtt};
  if (txn.btotal <= 0 || txn.ttotal <= 0) return out;

  const double testable = ideal::testable_goodput(txn.btotal, txn.wnic, txn.min_rtt);
  if (testable <= c.bottleneck) return out;
  out.testable = true;
  const double estimate = estimate_delivery_rate(txn);
  out.relative_error = (c.bottleneck - estimate) / c.bottleneck;
  return out;
}

/// Prints the usage line and exits 2.
[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--quick]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // The only argument is --quick; anything else is a usage error rather
  // than a silent full sweep.
  if (argc > 2 || (argc == 2 && std::string_view(argv[1]) != "--quick")) {
    usage(argv[0]);
  }
  const bool quick = argc == 2;

  // 10 x 12 x 12 x 11 = 15,840 configurations (paper's count).
  std::vector<double> bandwidths, rtts;
  std::vector<int> windows, sizes;
  for (int i = 0; i < 10; ++i) bandwidths.push_back((0.5 + 0.5 * i) * 1e6);
  for (int i = 0; i < 12; ++i) rtts.push_back((20.0 + i * 180.0 / 11.0) * 1e-3);
  windows = {1, 2, 4, 6, 8, 10, 15, 20, 25, 30, 40, 50};
  sizes = {1, 2, 5, 10, 20, 40, 75, 100, 150, 250, 500};
  if (quick) {
    bandwidths.resize(3);
    rtts.resize(3);
    windows = {1, 10, 50};
    sizes = {5, 50, 500};
  }

  std::vector<double> errors;
  int total = 0, testable = 0, overestimates = 0;
  for (double bw : bandwidths)
    for (double rtt : rtts)
      for (int w : windows)
        for (int size : sizes) {
          ++total;
          const auto r = run({bw, rtt, w, size});
          if (!r.testable) continue;
          ++testable;
          errors.push_back(r.relative_error);
          if (r.relative_error < -0.01) ++overestimates;
        }

  std::printf("==== §3.2.3 validation sweep ====\n");
  std::printf("configurations: %d  testable: %d\n", total, testable);
  std::printf("paper: estimate never overestimates the bottleneck; p99 of\n");
  std::printf("       (Gbottleneck - G)/Gbottleneck = 0.066\n\n");
  std::printf("overestimates (beyond 1%% slack): %d\n", overestimates);
  if (!errors.empty()) {
    std::sort(errors.begin(), errors.end());
    std::printf("relative error: p50=%.4f p90=%.4f p99=%.4f max=%.4f min=%.4f\n",
                quantile_sorted(errors, 0.50), quantile_sorted(errors, 0.90),
                quantile_sorted(errors, 0.99), errors.back(), errors.front());
  }
  return overestimates == 0 ? 0 : 1;
}
