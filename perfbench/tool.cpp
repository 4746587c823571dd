// perfbench_tool — the in-process half of the benchmark (run.py drives it).
//
//   perfbench_tool gen   --workload W --seed N --dir D --threads T
//                        [--scale S]
//       Generate the workload's banks from simulate::PaperData(scale, seed)
//       as FASTA in D, and the correctness reference: the m8 an in-process
//       scoris::Session produces on the same files (D/ref.m8), or, for the
//       served workload, one digest per query batch (D/ref_batches.tsv).
//   perfbench_tool load  --dir D --connect ADDR --clients C --seconds S
//                        --warmup K [--stat] [--corrupt]
//       Closed-loop load on a running `scoris serve`: C connections, each
//       sending its next query batch only after the previous DONE.  Each
//       client sends K untimed warm-up queries; the timed phase then starts
//       for all clients at once and lasts S seconds.  --corrupt flips one
//       byte of the first reply (the self-check's failure probe).
//   perfbench_tool trace --workload W --dir D --threads T --reps R
//       Replay the workload in-process through each layer's public calls,
//       timing every call from here (nothing is instrumented inside the
//       library), and report per-layer self times and work counters.
//
// Every subcommand prints one JSON object on stdout and exits non-zero on
// any error.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "align/simd/kernel_dispatch.hpp"
#include "api/session.hpp"
#include "api/sinks.hpp"
#include "core/chunked.hpp"
#include "core/exec/plan.hpp"
#include "core/exec/run_merge.hpp"
#include "core/gapped_stage.hpp"
#include "core/ordered_extend.hpp"
#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "net/client.hpp"
#include "seqio/fasta.hpp"
#include "seqio/strand.hpp"
#include "simulate/paper_datasets.hpp"
#include "stats/karlin.hpp"
#include "store/index_store.hpp"
#include "util/argparse.hpp"
#include "util/threading.hpp"
#include "util/timer.hpp"

namespace {

using namespace scoris;
namespace fs = std::filesystem;

// ---- workloads ------------------------------------------------------------

/// What run.py and this tool must agree on.  The CLI flags of each
/// workload live in run.py; the options here mirror them.
struct Workload {
  std::string name;
  double scale = 0.25;
  const char* bank1 = "EST3";
  const char* bank2 = "EST4";
  seqio::Strand strand = seqio::Strand::kPlus;
  bool from_scix = false;           ///< bank 1 adopted from ref.scix
  std::size_t memory_budget_mb = 0;  ///< --memory-budget-mb
  std::size_t delivery_budget_kb = 0;  ///< --delivery-budget-kb
  bool served = false;              ///< queries of kBatchReads reads
};

/// Reads per served query batch (about 9 kbp of EST4).
constexpr std::size_t kBatchReads = 20;
/// Query batches the served workload cycles through.
constexpr std::size_t kServedBatches = 48;

Workload workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "est_flat") return w;
  if (name == "genome_sparse") {
    w.scale = 0.1;
    w.bank1 = "H19";
    w.bank2 = "BCT";
    return w;
  }
  if (name == "served_small") {
    w.from_scix = true;
    w.served = true;
    return w;
  }
  if (name == "est_budget") {
    w.from_scix = true;
    w.strand = seqio::Strand::kBoth;
    w.memory_budget_mb = 48;
    w.delivery_budget_kb = 256;
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Options session_options(const Workload& w, int threads) {
  Options o;
  o.threads = threads;
  o.strand = w.strand;
  return o;
}

// ---- small helpers --------------------------------------------------------

/// FNV-1a 64 as 16 hex digits (per-query digests on the served path).
std::string fnv64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Split FASTA text into query batches of kBatchReads records each.
std::vector<std::string> split_batches(const std::string& fasta) {
  std::vector<std::string> batches;
  std::size_t pos = 0;
  std::size_t records = 0;
  std::size_t start = 0;
  while (pos < fasta.size()) {
    const std::size_t eol = std::min(fasta.find('\n', pos), fasta.size());
    if (fasta[pos] == '>') {
      if (records == kBatchReads) {
        batches.push_back(fasta.substr(start, pos - start));
        start = pos;
        records = 0;
      }
      ++records;
    }
    pos = eol + 1;
  }
  if (records > 0) batches.push_back(fasta.substr(start));
  return batches;
}

/// Minimal JSON object writer: numbers, strings, number arrays, objects.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    std::ostringstream ss;
    ss.precision(17);
    ss << v;
    return raw(key, ss.str());
  }
  Json& num(const std::string& key, std::size_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c == '\n' ? ' ' : c;
    }
    return raw(key, q + "\"");
  }
  Json& arr(const std::string& key, const std::vector<double>& v) {
    std::ostringstream ss;
    ss.precision(17);
    ss << '[';
    for (std::size_t i = 0; i < v.size(); ++i) ss << (i ? "," : "") << v[i];
    ss << ']';
    return raw(key, ss.str());
  }
  Json& obj(const std::string& key, const Json& v) {
    return raw(key, v.text());
  }
  Json& objs(const std::string& key, const std::vector<Json>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s += ',';
      s += v[i].text();
    }
    return raw(key, s + "]");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

/// Value of a required flag.
std::string need(const util::Args& args, const std::string& key) {
  std::string value = args.get(key);
  if (value.empty()) throw std::invalid_argument("missing --" + key);
  return value;
}

long need_int(const util::Args& args, const std::string& key) {
  return std::stol(need(args, key));
}

// ---- gen ------------------------------------------------------------------

Json bank_info(const seqio::SequenceBank& bank) {
  Json j;
  j.num("sequences", bank.size()).num("bases", bank.total_bases());
  return j;
}

int cmd_gen(const util::Args& args) {
  const Workload w = workload(need(args, "workload"));
  const fs::path dir = need(args, "dir");
  const int threads = static_cast<int>(need_int(args, "threads"));
  fs::create_directories(dir);

  const double scale = args.has("scale") ? std::stod(need(args, "scale"))
                                          : w.scale;
  util::WallTimer timer;
  const auto seed = static_cast<std::uint64_t>(need_int(args, "seed"));
  const simulate::PaperData data(scale, seed);
  seqio::write_fasta_file((dir / "bank1.fa").string(), data.make(w.bank1));
  seqio::SequenceBank generated2 = data.make(w.bank2);
  if (w.served) {
    // Only the reads the served load sends: the first kServedBatches
    // batches of kBatchReads reads.
    const std::size_t n =
        std::min(generated2.size(), kServedBatches * kBatchReads);
    seqio::SequenceBank head(generated2.name());
    for (std::size_t i = 0; i < n; ++i) {
      head.add_codes(generated2.seq_name(i), generated2.codes(i));
    }
    generated2 = std::move(head);
  }
  seqio::write_fasta_file((dir / "bank2.fa").string(), generated2);
  const double gen_seconds = timer.seconds();

  // The reference reads the same files the program reads.
  timer.reset();
  const seqio::SequenceBank bank1 =
      seqio::read_fasta_file((dir / "bank1.fa").string());
  const seqio::SequenceBank bank2 =
      seqio::read_fasta_file((dir / "bank2.fa").string());
  const Session session(bank1, session_options(w, threads));
  std::size_t alignments = 0;
  std::size_t batches = 0;
  if (w.served) {
    std::ofstream tsv(dir / "ref_batches.tsv");
    for (const std::string& text : split_batches(read_file(dir / "bank2.fa"))) {
      const seqio::SequenceBank q = seqio::read_fasta_string(text, "query");
      std::ostringstream m8;
      M8Writer writer(m8);
      session.search(q, writer);
      tsv << fnv64(m8.str()) << '\t' << writer.written() << '\n';
      alignments += writer.written();
      ++batches;
    }
    if (!tsv.flush()) throw std::runtime_error("cannot write ref_batches.tsv");
  } else {
    std::ofstream m8(dir / "ref.m8", std::ios::binary);
    M8Writer writer(m8);
    session.search(bank2, writer);
    alignments = writer.written();
    if (!m8.flush()) throw std::runtime_error("cannot write ref.m8");
  }

  Json out;
  out.str("workload", w.name)
      .num("scale", scale)
      .obj("bank1", bank_info(bank1).str("name", w.bank1))
      .obj("bank2", bank_info(bank2).str("name", w.bank2))
      .num("batches", batches)
      .num("ref_alignments", alignments)
      .str("kernel", align::simd::dispatch().name)
      .num("gen_s", gen_seconds)
      .num("reference_s", timer.seconds());
  std::cout << out.text() << '\n';
  return 0;
}

// ---- load -----------------------------------------------------------------

struct ClientLog {
  std::vector<double> latency_ms;  ///< timed queries only
  std::vector<double> server_ms;
  std::vector<double> connect_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

/// Barrier completion: stamps the start of the timed phase.
struct MarkStart {
  std::chrono::steady_clock::time_point* start;
  void operator()() noexcept { *start = std::chrono::steady_clock::now(); }
};

struct LoadPlan {
  net::Endpoint ep;
  std::vector<std::string> batches;
  std::vector<std::string> digests;
  std::size_t warmup = 0;
  double seconds = 0.0;
  std::atomic<bool> corrupt{false};  ///< flip a byte of the next reply
  /// Warm-up done on every client; the timed phase starts together.
  std::unique_ptr<std::barrier<MarkStart>> ready;
  std::chrono::steady_clock::time_point start;  ///< set by the barrier
};

void note_failure(ClientLog& log, const std::string& what) {
  ++log.failed;
  if (log.errors.size() < 5) log.errors.push_back(what);
}

/// One query on `client` (connecting first when needed).  Returns the
/// client-side latency, or a negative value on failure.
double one_query(LoadPlan& plan, std::optional<net::QueryClient>& client,
                 std::size_t b, ClientLog& log, double& server_ms) {
  using clock = std::chrono::steady_clock;
  ++log.attempted;
  try {
    if (!client) {
      const auto t0 = clock::now();
      client.emplace(net::QueryClient::connect(plan.ep));
      log.connect_ms.push_back(
          std::chrono::duration<double, std::milli>(clock::now() - t0)
              .count());
    }
    std::string rows;
    const auto t0 = clock::now();
    const net::QueryResult r = client->query(
        plan.batches[b], net::QueryStrand::kDefault,
        [&rows](std::string_view chunk) { rows.append(chunk); });
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (!rows.empty() && plan.corrupt.exchange(false)) rows[0] ^= 1;
    if (!r.ok) {
      note_failure(log, "ERR: " + r.error);
    } else if (fnv64(rows) != plan.digests[b]) {
      note_failure(log, "m8 mismatch on batch " + std::to_string(b));
    } else {
      server_ms = r.server_seconds * 1e3;
      return ms;
    }
  } catch (const std::exception& e) {
    // ServerBusy and NetError alike: count, reconnect on the next try.
    note_failure(log, e.what());
    client.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1.0;
}

/// One closed-loop client: its own connection, queries back to back,
/// cycling through the batches from `first`.
void run_client(LoadPlan& plan, std::size_t first, ClientLog& log) {
  std::optional<net::QueryClient> client;
  std::size_t k = first;
  double server_ms = 0.0;
  for (std::size_t i = 0; i < plan.warmup; ++i, ++k) {
    one_query(plan, client, k % plan.batches.size(), log, server_ms);
  }
  plan.ready->arrive_and_wait();
  using clock = std::chrono::steady_clock;
  const auto deadline =
      plan.start + std::chrono::duration_cast<clock::duration>(
                       std::chrono::duration<double>(plan.seconds));
  for (; clock::now() < deadline; ++k) {
    const double ms =
        one_query(plan, client, k % plan.batches.size(), log, server_ms);
    if (ms >= 0.0) {
      log.latency_ms.push_back(ms);
      log.server_ms.push_back(server_ms);
    }
  }
}

/// Sum of a Prometheus counter over its samples (0 when absent).
double scrape_counter(const std::string& text, const std::string& name) {
  double total = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : ' ';
    if (next != ' ' && next != '{') continue;
    total += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

double busy_refusals(const net::Endpoint& ep) {
  net::QueryClient client = net::QueryClient::connect(ep);
  return scrape_counter(client.stats(), "scorisd_busy_refusals_total");
}

int cmd_load(const util::Args& args) {
  const fs::path dir = need(args, "dir");
  const auto clients = static_cast<std::size_t>(need_int(args, "clients"));
  LoadPlan plan;
  plan.ep = net::parse_endpoint(need(args, "connect"));
  plan.warmup = static_cast<std::size_t>(need_int(args, "warmup"));
  plan.seconds = std::stod(need(args, "seconds"));
  plan.corrupt = args.has("corrupt");
  plan.batches = split_batches(read_file(dir / "bank2.fa"));
  {
    std::istringstream tsv(read_file(dir / "ref_batches.tsv"));
    std::string line;
    while (std::getline(tsv, line)) plan.digests.push_back(line.substr(0, 16));
  }
  if (plan.batches.empty() || plan.digests.size() != plan.batches.size()) {
    throw std::runtime_error("query batches and reference digests differ");
  }
  plan.ready = std::make_unique<std::barrier<MarkStart>>(
      static_cast<std::ptrdiff_t>(clients), MarkStart{&plan.start});

  const bool stat = args.has("stat");
  const double busy_before = stat ? busy_refusals(plan.ep) : 0.0;
  std::vector<ClientLog> logs(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back(run_client, std::ref(plan),
                         c * plan.batches.size() / clients, std::ref(logs[c]));
  }
  for (std::thread& t : threads) t.join();
  const double timed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    plan.start)
          .count();
  const double busy_after = stat ? busy_refusals(plan.ep) : 0.0;

  ClientLog all;
  std::string errors;
  for (ClientLog& log : logs) {
    all.latency_ms.insert(all.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
    all.server_ms.insert(all.server_ms.end(), log.server_ms.begin(),
                         log.server_ms.end());
    all.connect_ms.insert(all.connect_ms.end(), log.connect_ms.begin(),
                          log.connect_ms.end());
    all.attempted += log.attempted;
    all.failed += log.failed;
    for (const std::string& e : log.errors) errors += e + "; ";
  }
  Json out;
  out.arr("latency_ms", all.latency_ms)
      .arr("server_ms", all.server_ms)
      .arr("connect_ms", all.connect_ms)
      .num("attempted", all.attempted)
      .num("failed", all.failed)
      .num("timed_s", timed_s)
      .num("busy_refusals", busy_after - busy_before)
      .str("errors", errors);
  std::cout << out.text() << '\n';
  return 0;
}

// ---- trace ----------------------------------------------------------------

/// Per-layer self seconds and work counters of one replay.  Keys are the
/// per-layer metric names of BENCHMARK.json.
struct Layers {
  std::map<std::string, double> seconds;
  std::map<std::string, double> counts;
  void add_s(const std::string& k, double v) { seconds[k] += v; }
  void add(const std::string& k, double v) { counts[k] += v; }
  void peak(const std::string& k, double v) {
    counts[k] = std::max(counts[k], v);
  }
};

/// Times a callable into a layer's seconds.
template <typename Fn>
auto timed(Layers& layers, const std::string& key, Fn&& fn) {
  util::WallTimer t;
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    layers.add_s(key, t.seconds());
  } else {
    auto result = fn();
    layers.add_s(key, t.seconds());
    return result;
  }
}

/// M8Writer behind a stopwatch, so the merge's self time excludes the
/// formatting it drives.
class TimedM8 final : public HitSink {
 public:
  TimedM8(std::ostream& os, Layers& layers) : writer_(os), layers_(&layers) {}
  void on_group(std::span<const align::GappedAlignment> hits,
                const HitBatch& batch) override {
    timed(*layers_, "api.m8_s", [&] { writer_.on_group(hits, batch); });
  }

 private:
  M8Writer writer_;
  Layers* layers_;
};

std::size_t bitmap_bytes(const filter::MaskBitmap& bitmap) {
  return (bitmap.size() + 63) / 64 * 8;
}

/// Bytes resident for one index: dictionary + chain + CSR occurrence lists
/// + word-start bitmap, from the public accessors.
std::size_t resident_bytes(const index::BankIndex& idx) {
  return idx.dictionary_bytes() + idx.chain_bytes() + idx.occurrence_bytes() +
         bitmap_bytes(idx.indexed_bitmap());
}

/// The engine's flow for one query against a prepared bank-1 index: the
/// same plan, the same public calls in the same order, each timed here.
/// `m8` receives the final stream.
void replay_query(const index::BankIndex& idx1,
                  const seqio::SequenceBank& bank2, const Options& options,
                  const SearchLimits& limits, util::ThreadPool& pool,
                  std::ostream& m8, Layers& layers) {
  const seqio::SequenceBank& bank1 = idx1.bank();
  const index::SeedCoder coder(options.effective_w());
  const stats::KarlinParams karlin = stats::karlin_match_mismatch(
      options.scoring.match, options.scoring.mismatch);

  core::exec::PlanRequest preq;
  preq.strand = options.strand;
  preq.bank2_size = bank2.size();
  preq.threads = options.threads;
  preq.shards = options.shards;
  preq.schedule = options.schedule;
  if (limits.memory_budget_bytes > 0) {
    core::ChunkedOptions copt;
    copt.pipeline = options;
    copt.memory_budget_bytes = limits.memory_budget_bytes;
    preq.slices = core::plan_budget_slices(
        idx1.memory_bytes() + bank1.data_size() * sizeof(seqio::Code), bank2,
        copt);
  }
  const core::exec::ExecutionPlan plan = timed(layers, "core.scan_s", [&] {
    return core::exec::compile_plan(idx1, preq);
  });

  core::SeedScanParams scan;
  scan.scoring = options.scoring;
  scan.min_hsp_score = options.min_hsp_score;
  scan.enforce_order = options.enforce_order;
  core::GappedStageOptions gopt;
  gopt.scoring = options.scoring;
  gopt.max_evalue = options.max_evalue;
  gopt.max_gap_extent = options.max_gap_extent;
  gopt.threads = options.threads;
  gopt.pool = &pool;

  TimedM8 sink(m8, layers);
  const bool stream = plan.groups.size() <= 1;
  std::optional<core::exec::RunMerger> merger;
  if (!stream) {
    core::exec::RunMergeConfig mcfg;
    mcfg.budget_bytes = options.delivery_budget_bytes;
    mcfg.tmp_dir = options.tmp_dir;
    merger.emplace(std::move(mcfg), plan.groups.size());
  }
  std::size_t peak2_resident = 0;
  std::size_t peak2_stats = 0;
  std::size_t peak2_positions = 0;
  std::optional<seqio::SequenceBank> sliced;
  for (std::uint32_t gid = 0; gid < plan.groups.size(); ++gid) {
    const core::exec::ShardGroup& group = plan.groups[gid];
    const bool whole = group.slice.from == 0 && group.slice.to == bank2.size();
    std::optional<seqio::SequenceBank> rc;
    timed(layers, "index.bank2_build_s", [&] {
      if (!whole && (gid == 0 || plan.groups[gid - 1].slice.from !=
                                     group.slice.from)) {
        sliced = core::slice_bank(bank2, group.slice.from, group.slice.to);
      }
      if (group.minus) rc = seqio::reverse_complement(whole ? bank2 : *sliced);
    });
    const seqio::SequenceBank& subject =
        group.minus ? *rc : (whole ? bank2 : *sliced);

    filter::MaskBitmap mask2;
    index::IndexOptions iopt2;
    if (options.dust) {
      mask2 = timed(layers, "filter.dust_s", [&] {
        return filter::dust_mask(subject, options.dust_params);
      });
      iopt2.mask = &mask2;
    }
    util::WallTimer tb;
    const index::BankIndex idx2(subject, coder, iopt2);
    layers.add_s("index.bank2_build_s", tb.seconds());
    layers.add("filter.masked_bases", idx2.masked_bases());
    peak2_resident = std::max(peak2_resident, resident_bytes(idx2));
    peak2_stats = std::max(peak2_stats, idx2.memory_bytes());
    peak2_positions = std::max(peak2_positions, idx2.total_indexed());

    std::vector<core::SeedScanResult> partials(group.shard_count);
    std::vector<align::Hsp> hsps = timed(layers, "core.scan_s", [&] {
      util::run_tasks(pool, group.shard_count, plan.schedule,
                      [&](std::size_t s) {
                        const core::exec::Shard& shard =
                            plan.shards[group.first_shard + s];
                        core::scan_seed_range(idx1, idx2, scan, shard.codes.lo,
                                              shard.codes.hi, partials[s]);
                      });
      std::vector<align::Hsp> all;
      for (core::SeedScanResult& p : partials) {
        all.insert(all.end(), p.hsps.begin(), p.hsps.end());
      }
      return all;
    });
    for (const core::SeedScanResult& p : partials) {
      layers.add("core.hit_pairs", p.hit_pairs);
      layers.add("core.order_aborts", p.order_aborts);
    }
    layers.add("core.hsps", hsps.size());

    core::GappedStageStats gstats;
    std::vector<align::GappedAlignment> alignments =
        timed(layers, "core.gapped_s", [&] {
          auto out = core::gapped_stage(hsps, bank1, subject, karlin, gopt,
                                        &gstats);
          for (align::GappedAlignment& a : out) {
            if (group.minus) a.minus = true;
            if (!whole) {
              const std::size_t orig = a.seq2 + group.slice.from;
              const seqio::Pos from = subject.offset(a.seq2);
              const seqio::Pos to = bank2.offset(orig);
              a.seq2 = static_cast<std::uint32_t>(orig);
              a.s2 = a.s2 - from + to;
              a.e2 = a.e2 - from + to;
            }
          }
          return out;
        });
    layers.add("core.gapped_extensions", gstats.gapped_extensions);
    layers.add("core.skipped_contained", gstats.skipped_contained);
    layers.add("core.below_cutoff", gstats.below_cutoff);
    layers.add("core.alignments", alignments.size());

    if (stream) {
      layers.peak("exec.peak_delivery_bytes",
                  alignments.size() * sizeof(align::GappedAlignment));
      HitBatch batch;
      batch.bank1 = &bank1;
      batch.bank2 = &bank2;
      batch.last = true;
      sink.on_group(alignments, batch);
    } else {
      timed(layers, "exec.merge_s",
            [&] { merger->add_run(std::move(alignments)); });
    }
  }
  if (merger) {
    HitBatch batch;
    batch.bank1 = &bank1;
    batch.bank2 = &bank2;
    const double m8_before = layers.seconds["api.m8_s"];
    timed(layers, "exec.merge_s", [&] { merger->merge(sink, batch); });
    // Self time: the merge span minus the m8 formatting it drove.
    layers.add_s("exec.merge_s", -(layers.seconds["api.m8_s"] - m8_before));
    const core::exec::MergeStats& ms = merger->stats();
    layers.add("exec.spilled_runs", ms.spilled_runs);
    layers.add("exec.spill_bytes", ms.spill_bytes);
    layers.peak("exec.peak_delivery_bytes", ms.peak_delivery_bytes);
  }
  layers.peak("index.positions", idx1.total_indexed() + peak2_positions);
  layers.peak("index.resident_bytes", resident_bytes(idx1) + peak2_resident);
  layers.peak("index.stats_bytes", idx1.memory_bytes() + peak2_stats);
}

/// One full replay of a batch workload (one invocation's worth of work).
Layers replay_batch(const Workload& w, const fs::path& dir, int threads,
                    util::ThreadPool& pool) {
  Layers layers;
  Options options = session_options(w, threads);
  options.delivery_budget_bytes = w.delivery_budget_kb << 10;
  options.tmp_dir = (dir / "tmp").string();
  SearchLimits limits;
  limits.memory_budget_bytes = w.memory_budget_mb << 20;

  std::optional<store::IndexStore> store;
  std::optional<seqio::SequenceBank> bank1;
  std::optional<index::BankIndex> own1;
  filter::MaskBitmap mask1;
  const index::BankIndex* idx1 = nullptr;
  if (w.from_scix) {
    store.emplace(timed(layers, "store.load_s", [&] {
      return store::load_index((dir / "ref.scix").string());
    }));
    layers.add("store.file_bytes", fs::file_size(dir / "ref.scix"));
    store::IndexKey key;
    key.w = options.effective_w();
    idx1 = &store->require(key);
  } else {
    bank1.emplace(timed(layers, "seqio.parse_s", [&] {
      return seqio::read_fasta_file((dir / "bank1.fa").string());
    }));
    layers.add("seqio.bases", bank1->total_bases());
    mask1 = timed(layers, "filter.dust_s", [&] {
      return filter::dust_mask(*bank1, options.dust_params);
    });
    index::IndexOptions iopt1;
    iopt1.mask = &mask1;
    util::WallTimer t;
    own1.emplace(*bank1, index::SeedCoder(options.effective_w()), iopt1);
    layers.add_s("index.bank1_build_s", t.seconds());
    layers.add("filter.masked_bases", own1->masked_bases());
    idx1 = &*own1;
  }
  const seqio::SequenceBank bank2 = timed(layers, "seqio.parse_s", [&] {
    return seqio::read_fasta_file((dir / "bank2.fa").string());
  });
  layers.add("seqio.bases", bank2.total_bases());

  std::ofstream m8(dir / "trace.m8", std::ios::binary | std::ios::trunc);
  replay_query(*idx1, bank2, options, limits, pool, m8, layers);
  timed(layers, "api.m8_s", [&] {
    m8.close();
    if (!m8) throw std::runtime_error("cannot write trace.m8");
  });
  layers.add("api.m8_bytes", fs::file_size(dir / "trace.m8"));
  return layers;
}

/// One replay of the served workload: load the .scix once, then every
/// query batch through the per-query path.  Returns per-query values.
Layers replay_served(const Workload& w, const fs::path& dir, int threads,
                     util::ThreadPool& pool, std::size_t& mismatches) {
  Layers layers;
  const Options options = session_options(w, threads);
  const store::IndexStore store = timed(layers, "store.load_s", [&] {
    return store::load_index((dir / "ref.scix").string());
  });
  layers.add("store.file_bytes", fs::file_size(dir / "ref.scix"));
  store::IndexKey key;
  key.w = options.effective_w();
  const index::BankIndex& idx1 = store.require(key);

  const std::vector<std::string> batches =
      split_batches(read_file(dir / "bank2.fa"));
  std::istringstream tsv(read_file(dir / "ref_batches.tsv"));
  Layers queries;
  for (const std::string& text : batches) {
    std::string line;
    std::getline(tsv, line);
    const seqio::SequenceBank q = timed(queries, "seqio.parse_s", [&] {
      return seqio::read_fasta_string(text, "query");
    });
    queries.add("seqio.bases", q.total_bases());
    std::ostringstream m8;
    replay_query(idx1, q, options, {}, pool, m8, queries);
    queries.add("api.m8_bytes", m8.str().size());
    if (fnv64(m8.str()) != line.substr(0, 16)) ++mismatches;
  }
  // Per-query means, except for peaks and the one-off store load.
  const auto n = static_cast<double>(batches.size());
  for (const auto& [k, v] : queries.seconds) layers.add_s(k, v / n);
  for (const auto& [k, v] : queries.counts) {
    const bool peak = k == "index.positions" || k == "index.resident_bytes" ||
                      k == "index.stats_bytes" ||
                      k == "exec.peak_delivery_bytes";
    layers.add(k, peak ? v : v / n);
  }
  return layers;
}

int cmd_trace(const util::Args& args) {
  const Workload w = workload(need(args, "workload"));
  const fs::path dir = need(args, "dir");
  const int threads = static_cast<int>(need_int(args, "threads"));
  const long reps = need_int(args, "reps");
  fs::create_directories(dir / "tmp");
  util::ThreadPool pool(static_cast<std::size_t>(threads));

  std::vector<Json> out_reps;
  for (long r = 0; r < reps; ++r) {
    util::WallTimer wall;
    std::size_t mismatches = 0;
    const Layers layers = w.served
                              ? replay_served(w, dir, threads, pool, mismatches)
                              : replay_batch(w, dir, threads, pool);
    Json seconds;
    Json counts;
    for (const auto& [k, v] : layers.seconds) seconds.num(k, v);
    for (const auto& [k, v] : layers.counts) counts.num(k, v);
    Json rep;
    rep.num("wall_s", wall.seconds())
        .num("m8_mismatches", mismatches)
        .obj("seconds", seconds)
        .obj("counts", counts);
    out_reps.push_back(rep);
  }
  Json out;
  out.objs("reps", out_reps);
  std::cout << out.text() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args = util::Args::parse(argc, argv);
    if (args.positional().size() != 1) {
      throw std::invalid_argument("expected one of gen, load, trace");
    }
    const std::string& cmd = args.positional()[0];
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "load") return cmd_load(args);
    if (cmd == "trace") return cmd_trace(args);
    throw std::invalid_argument("unknown subcommand " + cmd);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool: " << e.what() << '\n';
    return 1;
  }
}
