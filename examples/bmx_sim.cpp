// bmx_sim — a parameterized workload driver for exploring the platform.
//
// Runs a configurable multi-node shared-graph workload with interleaved
// collections and prints a full statistics report: DSM traffic, GC work,
// SSP table churn, reclamation, and the headline non-interference counters.
//
// Usage (bmx_sim --help explains each argument):
//   bmx_sim [nodes] [objects] [rounds] [seed] [--distributed] [--ggc]
//           [--loss <pct>]
//
// Example:
//   bmx_sim 4 64 200 7 --distributed --ggc --loss 5

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <system_error>

#include "src/common/rng.h"
#include "src/runtime/cluster.h"
#include "src/runtime/mutator.h"
#include "src/workload/graph_builder.h"

using namespace bmx;

namespace {

struct Options {
  size_t nodes = 3;
  size_t objects = 32;
  size_t rounds = 100;
  uint64_t seed = 1;
  bool distributed = false;
  bool use_ggc = false;
  double loss = 0.0;
};

const char kUsage[] =
    "usage: bmx_sim [nodes] [objects] [rounds] [seed] [--distributed] [--ggc] [--loss <pct>]\n"
    "  nodes    simulated nodes, at least 1 (default 3)\n"
    "  objects  spine objects, at least 1 (default 32)\n"
    "  rounds   workload rounds (default 100)\n"
    "  seed     workload and network seed (default 1)\n"
    "  --distributed  distributed copy-sets (default centralized)\n"
    "  --ggc          collect with GGC (default BGC only)\n"
    "  --loss <pct>   message loss in percent, 0 to 100 (default 0)\n";

[[noreturn]] void Usage(std::FILE* out, int status) {
  std::fputs(kUsage, out);
  std::exit(status);
}

[[noreturn]] void BadArgs(const std::string& why) {
  std::fprintf(stderr, "bmx_sim: %s\n", why.c_str());
  Usage(stderr, 2);
}

// A whole decimal argument, or nullopt.
std::optional<uint64_t> ParseCount(const std::string& arg) {
  uint64_t value = 0;
  const char* end = arg.data() + arg.size();
  auto [ptr, ec] = std::from_chars(arg.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

Options Parse(int argc, char** argv) {
  Options opt;
  size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(stdout, 0);
    } else if (arg == "--distributed") {
      opt.distributed = true;
    } else if (arg == "--ggc") {
      opt.use_ggc = true;
    } else if (arg == "--loss") {
      if (i + 1 >= argc) {
        BadArgs("--loss needs a value");
      }
      char* end = nullptr;
      const char* text = argv[++i];
      double pct = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(pct >= 0 && pct <= 100)) {
        BadArgs(std::string("--loss must be a percentage from 0 to 100, got '") + text + "'");
      }
      opt.loss = pct / 100.0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      BadArgs("unknown flag '" + arg + "'");
    } else {
      std::optional<uint64_t> value = ParseCount(arg);
      if (!value) {
        BadArgs("'" + arg + "' is not a whole number");
      }
      switch (positional++) {
        case 0:
          opt.nodes = *value;
          break;
        case 1:
          opt.objects = *value;
          break;
        case 2:
          opt.rounds = *value;
          break;
        case 3:
          opt.seed = *value;
          break;
        default:
          BadArgs("too many arguments at '" + arg + "'");
      }
    }
  }
  if (opt.nodes == 0) {
    BadArgs("nodes must be at least 1");
  }
  if (opt.objects == 0) {
    BadArgs("objects must be at least 1");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Parse(argc, argv);
  std::printf("bmx_sim: %zu nodes, %zu objects, %zu rounds, seed %llu, %s copy-sets, %s, "
              "loss %.0f%%\n",
              opt.nodes, opt.objects, opt.rounds, (unsigned long long)opt.seed,
              opt.distributed ? "distributed" : "centralized",
              opt.use_ggc ? "GGC enabled" : "BGC only", opt.loss * 100);

  Cluster cluster({.num_nodes = opt.nodes,
                   .copyset_mode = opt.distributed ? CopySetMode::kDistributed
                                                   : CopySetMode::kCentralized,
                   .seed = opt.seed});
  cluster.network().set_loss_rate(opt.loss);
  std::vector<std::unique_ptr<Mutator>> mutators;
  for (size_t i = 0; i < opt.nodes; ++i) {
    mutators.push_back(std::make_unique<Mutator>(&cluster.node(i)));
  }
  BunchId bunch = cluster.CreateBunch(0);
  Rng rng(opt.seed);

  // Shared population with a spine rooted at node 0.
  std::vector<Gaddr> objects;
  for (size_t i = 0; i < opt.objects; ++i) {
    objects.push_back(mutators[0]->Alloc(bunch, 3));
  }
  for (size_t i = 0; i + 1 < opt.objects; ++i) {
    mutators[0]->WriteRef(objects[i], 0, objects[i + 1]);
  }
  mutators[0]->AddRoot(objects[0]);

  size_t gc_runs = 0;
  for (size_t round = 0; round < opt.rounds; ++round) {
    NodeId writer = static_cast<NodeId>(rng.Below(opt.nodes));
    Gaddr victim = objects[rng.Below(objects.size())];
    if (mutators[writer]->AcquireWrite(victim)) {
      mutators[writer]->WriteRef(victim, 1, objects[rng.Below(objects.size())]);
      mutators[writer]->WriteWord(victim, 2, round);
      mutators[writer]->Release(victim);
    }
    for (int r = 0; r < 2; ++r) {
      NodeId reader = static_cast<NodeId>(rng.Below(opt.nodes));
      Gaddr obj = objects[rng.Below(objects.size())];
      if (mutators[reader]->AcquireRead(obj)) {
        mutators[reader]->Release(obj);
      }
    }
    if (rng.Chance(0.2)) {
      NodeId collector = static_cast<NodeId>(rng.Below(opt.nodes));
      if (opt.use_ggc) {
        cluster.node(collector).gc().CollectGroup();
      } else {
        cluster.node(collector).gc().CollectBunch(bunch);
      }
      gc_runs++;
      if (rng.Chance(0.5)) {
        cluster.node(collector).gc().ReclaimFromSpaces(bunch);
      }
      cluster.Pump();
    }
    for (size_t i = 0; i < objects.size(); ++i) {
      objects[i] = cluster.node(0).dsm().ResolveAddr(objects[i]);
    }
  }
  cluster.Pump();

  // ---- Report ----
  const NetworkStats& net = cluster.network().stats();
  std::printf("\n-- network --\n");
  std::printf("total messages: %llu (%llu bytes)\n", (unsigned long long)net.TotalSent(),
              (unsigned long long)net.TotalBytes());
  std::printf("  application/DSM:     %llu\n",
              (unsigned long long)net.SentInCategory(MsgCategory::kDsm));
  std::printf("  GC background:       %llu\n",
              (unsigned long long)net.SentInCategory(MsgCategory::kGcBackground));
  std::printf("  GC foreground:       %llu (must be 0: no baseline ran)\n",
              (unsigned long long)net.SentInCategory(MsgCategory::kGcForeground));

  uint64_t copied = 0, scanned = 0, reclaimed = 0, refs_updated = 0, segs_freed = 0;
  uint64_t tokens = 0, invalidated = 0, piggyback = 0;
  uint64_t stubs = 0, scions = 0, scions_deleted = 0;
  for (size_t n = 0; n < opt.nodes; ++n) {
    const GcStats& gc = cluster.node(n).gc().stats();
    copied += gc.objects_copied;
    scanned += gc.objects_scanned;
    reclaimed += gc.objects_reclaimed;
    refs_updated += gc.refs_updated_locally;
    segs_freed += gc.segments_freed;
    stubs += gc.inter_stubs_created + gc.intra_stubs_created;
    scions += gc.inter_scions_created + gc.intra_scions_created;
    scions_deleted += gc.inter_scions_deleted + gc.intra_scions_deleted;
    const DsmStats& dsm = cluster.node(n).dsm().stats();
    tokens += cluster.node(n).dsm().GcTokenAcquires();
    invalidated += dsm.read_copies_invalidated;
    piggyback += dsm.piggyback_updates_sent;
  }
  std::printf("\n-- garbage collection (%zu runs) --\n", gc_runs);
  std::printf("objects copied: %llu, scanned in place: %llu, reclaimed: %llu\n",
              (unsigned long long)copied, (unsigned long long)scanned,
              (unsigned long long)reclaimed);
  std::printf("local refs updated: %llu, segments freed: %llu\n",
              (unsigned long long)refs_updated, (unsigned long long)segs_freed);
  std::printf("SSPs created: %llu stubs / %llu scions; scions cleaned: %llu\n",
              (unsigned long long)stubs, (unsigned long long)scions,
              (unsigned long long)scions_deleted);
  std::printf("address updates piggybacked on app traffic: %llu\n",
              (unsigned long long)piggyback);
  std::printf("\n-- the headline --\n");
  std::printf("tokens acquired by the collector: %llu\n", (unsigned long long)tokens);
  std::printf("read copies invalidated by the collector: 0 by construction "
              "(all %llu invalidations were application writes)\n",
              (unsigned long long)invalidated);

  // Final integrity walk from node 0.
  size_t len = 0;
  Gaddr cur = objects[0];
  while (cur != kNullAddr && mutators[0]->AcquireRead(cur)) {
    Gaddr next = mutators[0]->ReadRef(cur, 0);
    mutators[0]->Release(cur);
    cur = next;
    len++;
  }
  std::printf("\nintegrity: %zu/%zu spine objects reachable — %s\n", len, opt.objects,
              len == opt.objects ? "OK" : "CORRUPT");
  return len == opt.objects && tokens == 0 ? 0 : 1;
}
