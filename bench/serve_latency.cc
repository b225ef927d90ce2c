// Daemon request latency: an in-process `condtd serve` on a unix
// socket, four concurrent ingest clients hammering one corpus, and one
// query client measuring end-to-end QUERY wall time while ingestion is
// in flight. Every query takes a consistent snapshot and re-learns the
// schema off the ingest lock, so the distribution captures the real
// reader cost under writer pressure — the number a tenant sees, not an
// idle-server microbenchmark. Quantiles are exact (sorted raw samples,
// not histogram interpolation; the obs::StageStats histograms are for
// the always-on cheap path inside the daemon).
//
//   serve_latency [--clients=4] [--docs-per-client=250] [--queries=200]
//                 [--snapshot-every=0] [--corpus-ttl=SECONDS] [--fsync]
//                 [--tcp]
//
// --tcp measures the loopback TCP transport instead of the unix socket.
// The listener binds port 0 and the clients use the kernel-chosen port
// reported by Server::port() — never a fixed port, so concurrent bench
// runs (or a CI machine with the port taken) cannot collide.
//
// Durability fsync is off by default: on the CI disk it measures the
// device, not the daemon. --fsync turns it back on to see the floor a
// durable deployment pays per INGEST. Emits the BENCH_serve.json body
// on stdout; bench/run_serve_latency.sh redirects it to the repo root.
//
// --corpus-ttl drives the eviction path deterministically: the registry
// runs on an injected clock pinned at zero for the whole measured run
// (so nothing evicts mid-bench), then the bench jumps the clock past
// the TTL and sweeps once — the before/after resident-byte figures in
// the report show how much memory idle-corpus eviction reclaims.

#include <unistd.h>

#include <memory>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/client.h"
#include "serve/server.h"

namespace condtd {
namespace {

struct Quantiles {
  int64_t count = 0;
  double mean_ns = 0;
  int64_t p50_ns = 0;
  int64_t p90_ns = 0;
  int64_t p99_ns = 0;
  int64_t max_ns = 0;
};

Quantiles Summarize(std::vector<int64_t>* samples) {
  Quantiles q;
  if (samples->empty()) return q;
  std::sort(samples->begin(), samples->end());
  q.count = static_cast<int64_t>(samples->size());
  int64_t total = 0;
  for (int64_t s : *samples) total += s;
  q.mean_ns = static_cast<double>(total) / static_cast<double>(q.count);
  auto at = [&](double p) {
    size_t index = static_cast<size_t>(p * static_cast<double>(q.count - 1));
    return (*samples)[index];
  };
  q.p50_ns = at(0.50);
  q.p90_ns = at(0.90);
  q.p99_ns = at(0.99);
  q.max_ns = samples->back();
  return q;
}

int64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void PrintQuantiles(const char* name, const Quantiles& q, bool last) {
  std::printf(
      "    \"%s\": {\"count\": %lld, \"mean_ns\": %.0f, "
      "\"p50_ns\": %lld, \"p90_ns\": %lld, \"p99_ns\": %lld, "
      "\"max_ns\": %lld}%s\n",
      name, static_cast<long long>(q.count), q.mean_ns,
      static_cast<long long>(q.p50_ns), static_cast<long long>(q.p90_ns),
      static_cast<long long>(q.p99_ns), static_cast<long long>(q.max_ns),
      last ? "" : ",");
}

int Run(int argc, char** argv) {
  int clients = 4;
  int docs_per_client = 2000;
  int min_queries = 200;
  int snapshot_every = 0;
  long long corpus_ttl = 0;
  bool fsync_journal = false;
  bool use_tcp = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--tcp") {
      use_tcp = true;
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--docs-per-client=", 0) == 0) {
      docs_per_client = std::atoi(arg.c_str() + 18);
    } else if (arg.rfind("--queries=", 0) == 0) {
      min_queries = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      snapshot_every = std::atoi(arg.c_str() + 17);
    } else if (arg.rfind("--corpus-ttl=", 0) == 0) {
      corpus_ttl = std::atoll(arg.c_str() + 13);
    } else if (arg == "--fsync") {
      fsync_journal = true;
    } else {
      std::fprintf(stderr, "serve_latency: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (clients < 1 || docs_per_client < 1 || min_queries < 0) {
    std::fprintf(stderr, "serve_latency: flags must be positive\n");
    return 2;
  }

  char scratch[] = "/tmp/condtd_serve_bench_XXXXXX";
  if (mkdtemp(scratch) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  std::string root = scratch;

  serve::ServerOptions options;
  if (use_tcp) {
    options.tcp_port = 0;  // bind an ephemeral port; never a fixed one
  } else {
    options.unix_socket = root + "/serve.sock";
  }
  options.workers = clients + 1;
  options.corpus.data_dir = root + "/data";
  options.corpus.fsync_journal = fsync_journal;
  options.corpus.snapshot_every = snapshot_every;
  // Injected registry clock: frozen at zero during the measured run so
  // the TTL can never fire mid-bench, then advanced past the TTL for
  // one deterministic sweep below.
  auto bench_clock = std::make_shared<std::atomic<int64_t>>(0);
  if (corpus_ttl > 0) {
    options.corpus_ttl_seconds = corpus_ttl;
    options.clock_ns = [bench_clock] { return bench_clock->load(); };
  }
  serve::Server server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve_latency: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  // Connector shared by every client thread; in TCP mode the port is
  // whatever the kernel handed the listener.
  auto connect = [&options, &server] {
    return options.unix_socket.empty()
               ? serve::Client::ConnectTcp("127.0.0.1", server.port())
               : serve::Client::ConnectUnix(options.unix_socket);
  };

  const std::vector<std::string>& corpus =
      bench_util::Table1TextDocuments();
  int64_t ingest_bytes = 0;

  std::atomic<bool> ingest_done{false};
  std::atomic<int> ingest_failures{0};
  std::vector<std::vector<int64_t>> ingest_samples(clients);
  std::vector<std::thread> ingesters;
  ingesters.reserve(clients);
  int64_t wall_start = NowNs();
  for (int c = 0; c < clients; ++c) {
    ingesters.emplace_back([&, c] {
      Result<serve::Client> client = connect();
      if (!client.ok()) {
        ingest_failures.fetch_add(docs_per_client);
        return;
      }
      ingest_samples[c].reserve(docs_per_client);
      for (int i = 0; i < docs_per_client; ++i) {
        // Interleave the shared corpus across clients so every client
        // touches every content-model shape.
        const std::string& doc =
            corpus[(c + static_cast<size_t>(i) * clients) % corpus.size()];
        int64_t start = NowNs();
        Result<std::string> reply = client->IngestInline("bench", doc);
        ingest_samples[c].push_back(NowNs() - start);
        if (!reply.ok()) ingest_failures.fetch_add(1);
      }
    });
  }

  // Queries issued while ingestion is still in flight are the number
  // that matters (reader latency under writer pressure); the idle
  // tail after the writers drain is reported separately — it
  // re-learns nothing and would otherwise drown the p50.
  std::vector<int64_t> query_under_ingest;
  std::vector<int64_t> query_idle;
  std::atomic<int> query_failures{0};
  std::thread querier([&] {
    Result<serve::Client> client = connect();
    if (!client.ok()) {
      query_failures.fetch_add(1);
      return;
    }
    // Keep querying at least until every ingest client has drained;
    // top up to the requested floor if ingestion finishes first. The
    // attempts cap only matters when ingestion failed outright and the
    // corpus never appears — without it the floor would spin forever
    // on NotFound.
    int64_t attempts = 0;
    const int64_t max_attempts = static_cast<int64_t>(min_queries) * 100;
    while (true) {
      bool under_ingest = !ingest_done.load();
      size_t total = query_under_ingest.size() + query_idle.size();
      if (!under_ingest && (static_cast<int>(total) >= min_queries ||
                            attempts >= max_attempts)) {
        break;
      }
      ++attempts;
      int64_t start = NowNs();
      Result<std::string> reply = client->Query("bench");
      // The very first queries can race corpus creation; NotFound
      // before the first INGEST lands is expected, not a failure.
      if (reply.ok()) {
        (under_ingest ? query_under_ingest : query_idle)
            .push_back(NowNs() - start);
      } else if (reply.status().code() != StatusCode::kNotFound) {
        query_failures.fetch_add(1);
      }
    }
  });

  for (std::thread& t : ingesters) t.join();
  ingest_done.store(true);
  querier.join();
  int64_t wall_ns = NowNs() - wall_start;

  for (int c = 0; c < clients; ++c) {
    for (int i = 0; i < docs_per_client; ++i) {
      ingest_bytes += static_cast<int64_t>(
          corpus[(c + static_cast<size_t>(i) * clients) % corpus.size()]
              .size());
    }
  }

  // A final consistent read plus clean shutdown — the bench doubles as
  // a smoke test that the daemon survives the contention it measured.
  int64_t documents_acked = -1;
  {
    Result<serve::Client> client = connect();
    if (client.ok()) {
      Result<std::string> ingested = client->IngestInline(
          "bench", corpus[0]);
      if (ingested.ok()) {
        // Payload: "ingested documents=<N> epoch=<E>".
        size_t pos = ingested->find("documents=");
        if (pos != std::string::npos) {
          documents_acked = std::atoll(ingested->c_str() + pos + 10);
        }
      }
    }
  }

  // Resident memory before/after the TTL sweep. The acked-documents
  // check above must land first: eviction closes the live session, and
  // the reopen-on-demand path is what the serve tests pin, not this
  // report.
  auto resident_bytes = [&server] {
    int64_t total = 0;
    for (const std::shared_ptr<serve::Corpus>& corpus :
         server.registry()->List()) {
      total += static_cast<int64_t>(corpus->ApproxBytes());
    }
    return total;
  };
  int64_t resident_under_load = resident_bytes();
  int64_t resident_after_ttl = resident_under_load;
  int64_t corpora_evicted = 0;
  if (corpus_ttl > 0) {
    bench_clock->store((corpus_ttl + 1) * 1000000000);
    corpora_evicted = server.registry()->SweepNow();
    resident_after_ttl = resident_bytes();
  }

  {
    Result<serve::Client> client = connect();
    if (client.ok()) (void)client->Shutdown();
  }
  server.Wait();

  std::vector<int64_t> all_ingest;
  for (std::vector<int64_t>& s : ingest_samples) {
    all_ingest.insert(all_ingest.end(), s.begin(), s.end());
  }
  Quantiles ingest_q = Summarize(&all_ingest);
  Quantiles query_load_q = Summarize(&query_under_ingest);
  Quantiles query_idle_q = Summarize(&query_idle);

  char date[64];
  std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%FT%T%z", std::localtime(&now));
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);

  std::printf("{\n");
  std::printf("  \"context\": {\n");
  std::printf("    \"date\": \"%s\",\n", date);
  std::printf("    \"host_name\": \"%s\",\n", host);
  std::printf("    \"executable\": \"%s\",\n", argv[0]);
  std::printf("    \"num_cpus\": %d\n", bench_util::NumCpus());
  std::printf("  },\n");
  std::printf("  \"config\": {\n");
  std::printf("    \"transport\": \"%s\",\n", use_tcp ? "tcp" : "unix");
  std::printf("    \"ingest_clients\": %d,\n", clients);
  std::printf("    \"docs_per_client\": %d,\n", docs_per_client);
  std::printf("    \"fsync_journal\": %s,\n",
              fsync_journal ? "true" : "false");
  std::printf("    \"snapshot_every\": %d,\n", snapshot_every);
  std::printf("    \"corpus_ttl_seconds\": %lld\n", corpus_ttl);
  std::printf("  },\n");
  std::printf("  \"results\": {\n");
  std::printf("    \"wall_seconds\": %.3f,\n",
              static_cast<double>(wall_ns) / 1e9);
  std::printf("    \"documents_ingested\": %lld,\n",
              static_cast<long long>(clients) * docs_per_client);
  std::printf("    \"documents_acked_by_server\": %lld,\n",
              static_cast<long long>(documents_acked));
  std::printf("    \"bytes_ingested\": %lld,\n",
              static_cast<long long>(ingest_bytes));
  std::printf("    \"ingest_failures\": %d,\n", ingest_failures.load());
  std::printf("    \"query_failures\": %d,\n", query_failures.load());
  std::printf("    \"resident_corpus_bytes_under_load\": %lld,\n",
              static_cast<long long>(resident_under_load));
  std::printf("    \"resident_corpus_bytes_after_ttl\": %lld,\n",
              static_cast<long long>(resident_after_ttl));
  std::printf("    \"corpora_evicted\": %lld,\n",
              static_cast<long long>(corpora_evicted));
  PrintQuantiles("ingest_latency", ingest_q, /*last=*/false);
  PrintQuantiles("query_latency_under_ingest", query_load_q,
                 /*last=*/false);
  PrintQuantiles("query_latency_idle", query_idle_q, /*last=*/true);
  std::printf("  }\n");
  std::printf("}\n");

  // Scratch cleanup: the data dir holds one corpus (CURRENT, journal,
  // maybe snapshots) — remove the handful of known entries.
  std::string data = options.corpus.data_dir + "/bench";
  std::string cleanup = "rm -rf '" + root + "'";
  if (root.rfind("/tmp/condtd_serve_bench_", 0) == 0) {
    (void)data;
    if (std::system(cleanup.c_str()) != 0) {
      std::fprintf(stderr, "serve_latency: cleanup failed for %s\n",
                   root.c_str());
    }
  }

  if (ingest_failures.load() > 0 || query_failures.load() > 0) return 1;
  if (documents_acked != static_cast<int64_t>(clients) * docs_per_client + 1) {
    std::fprintf(stderr,
                 "serve_latency: server acked %lld documents, expected "
                 "%lld\n",
                 static_cast<long long>(documents_acked),
                 static_cast<long long>(clients) * docs_per_client + 1);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace condtd

int main(int argc, char** argv) { return condtd::Run(argc, argv); }
