// tecore-server throughput: requests/sec over loopback HTTP against an
// in-process server, for a read-only workload (snapshot reads: graph
// info, stats, completion, cached conflicts), a mixed workload (the
// same reads while one client streams edit batches through
// /v1/kb/default/edits), and a multi-tenant workload (reads spread over 4
// KBs behind one registry + shared worker pool).
//
// The read path never takes the writer lock — the number to watch is how
// little read throughput degrades when the mixed workload turns writes
// on, and how little spreading reads over several KBs costs relative to
// reading one. Keep-alive connections, one per client thread.
//
// `--json out.json` writes the measurements machine-readably
// (BENCH_server.json); `--smoke` shrinks the workload for CI.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "datagen/generators.h"
#include "obs/metrics.h"
#include "rules/library.h"
#include "server/http_server.h"
#include "server/routes.h"
#include "util/bench_json.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

/// Keep-alive HTTP client on one blocking socket.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  /// One request/response round trip; returns the HTTP status (0 = I/O
  /// failure).
  int Round(const std::string& method, const std::string& path,
            const std::string& body = "") {
    const std::string request = StringPrintf(
        "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %zu\r\n\r\n%s",
        method.c_str(), path.c_str(), body.size(), body.c_str());
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n =
          ::send(fd_, request.data() + sent, request.size() - sent, 0);
      if (n <= 0) return 0;
      sent += static_cast<size_t>(n);
    }
    // Read one framed response off the keep-alive connection.
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return 0;
    }
    int status = 0;
    std::sscanf(buffer_.c_str(), "HTTP/1.1 %d", &status);
    size_t content_length = 0;
    const char* cl = std::strstr(buffer_.c_str(), "Content-Length:");
    if (cl != nullptr && cl < buffer_.c_str() + header_end) {
      content_length = static_cast<size_t>(std::atoll(cl + 15));
    }
    while (buffer_.size() < header_end + 4 + content_length) {
      if (!Fill()) return 0;
    }
    buffer_.erase(0, header_end + 4 + content_length);
    return status;
  }

 private:
  bool Fill() {
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// The read workload's requests against KB `kb`.
std::vector<std::string> ReadPaths(const std::string& kb) {
  std::vector<std::string> out;
  for (const char* endpoint :
       {"graph", "stats", "complete?prefix=plays", "conflicts"}) {
    out.push_back(StringPrintf("/v1/kb/%s/%s", kb.c_str(), endpoint));
  }
  return out;
}

/// Endpoint labels the workloads above exercise, as recorded by the
/// server's own `tecore_http_request_duration_micros{endpoint=…}`
/// histogram (the bench runs in-process, so the default metrics registry
/// is the server's).
const std::vector<std::string> kTimedEndpoints = {
    "graph", "stats", "complete", "conflicts", "edits"};

obs::Histogram::Snapshot SnapEndpoint(const std::string& endpoint) {
  return obs::Registry::Default()
      ->GetHistogram("tecore_http_request_duration_micros",
                     {{"endpoint", endpoint}},
                     obs::Histogram::DefaultLatencyBounds())
      ->Snap();
}

/// Cumulative-histogram delta: observations between two scrapes.
obs::Histogram::Snapshot Minus(obs::Histogram::Snapshot now,
                               const obs::Histogram::Snapshot& base) {
  for (size_t i = 0; i < now.counts.size(); ++i) {
    now.counts[i] -= base.counts[i];
  }
  now.count -= base.count;
  now.sum -= base.sum;
  return now;
}

/// Merge per-endpoint deltas into one distribution (identical bounds).
obs::Histogram::Snapshot Merge(
    const std::vector<obs::Histogram::Snapshot>& parts) {
  obs::Histogram::Snapshot out = parts.front();
  for (size_t p = 1; p < parts.size(); ++p) {
    for (size_t i = 0; i < out.counts.size(); ++i) {
      out.counts[i] += parts[p].counts[i];
    }
    out.count += parts[p].count;
    out.sum += parts[p].sum;
  }
  return out;
}

/// Records server-side p50/p95/p99 (µs) of one distribution into the
/// current bench record and echoes them on stdout.
void RecordLatency(BenchJson* bench, const obs::Histogram::Snapshot& snap) {
  bench->Metric("p50_micros", static_cast<double>(snap.Quantile(0.50)));
  bench->Metric("p95_micros", static_cast<double>(snap.Quantile(0.95)));
  bench->Metric("p99_micros", static_cast<double>(snap.Quantile(0.99)));
  std::printf("    server-side latency: p50=%llu µs p95=%llu µs p99=%llu µs\n",
              static_cast<unsigned long long>(snap.Quantile(0.50)),
              static_cast<unsigned long long>(snap.Quantile(0.95)),
              static_cast<unsigned long long>(snap.Quantile(0.99)));
}

/// One snapshot per timed endpoint, in kTimedEndpoints order.
std::vector<obs::Histogram::Snapshot> SnapAll() {
  std::vector<obs::Histogram::Snapshot> out;
  out.reserve(kTimedEndpoints.size());
  for (const std::string& endpoint : kTimedEndpoints) {
    out.push_back(SnapEndpoint(endpoint));
  }
  return out;
}

/// Delta of every timed endpoint since `base`, merged.
obs::Histogram::Snapshot DeltaSince(
    const std::vector<obs::Histogram::Snapshot>& base) {
  std::vector<obs::Histogram::Snapshot> deltas;
  deltas.reserve(kTimedEndpoints.size());
  const std::vector<obs::Histogram::Snapshot> now = SnapAll();
  for (size_t i = 0; i < now.size(); ++i) {
    deltas.push_back(Minus(now[i], base[i]));
  }
  return Merge(deltas);
}

/// Run `clients` reader threads for `requests_each` requests each,
/// cycling through `paths`; returns total successful requests.
size_t RunReaders(int port, int clients, size_t requests_each,
                  const std::vector<std::string>& paths,
                  std::atomic<bool>* failed) {
  std::atomic<size_t> completed{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([port, requests_each, c, &paths, &completed,
                          &failed] {
      Client client(port);
      if (!client.ok()) {
        failed->store(true);
        return;
      }
      for (size_t i = 0; i < requests_each; ++i) {
        const std::string& path =
            paths[(i + static_cast<size_t>(c)) % paths.size()];
        if (client.Round("GET", path) != 200) {
          failed->store(true);
          return;
        }
        ++completed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return completed.load();
}

/// Seed one engine with the football workload: graph + constraints, one
/// solve, warmed conflict cache (steady-state read traffic).
bool SeedEngine(api::Engine* engine, size_t players, unsigned seed) {
  datagen::FootballDbOptions gen;
  gen.num_players = players;
  gen.seed = seed;
  engine->SetGraph(std::move(datagen::GenerateFootballDb(gen).graph));
  auto constraints = rules::FootballConstraints();
  if (!constraints.ok()) return false;
  engine->AddRules(*constraints);
  auto solved = engine->Solve(core::ResolveOptions());
  if (!solved.ok()) {
    std::fprintf(stderr, "%s\n", solved.status().ToString().c_str());
    return false;
  }
  (void)engine->snapshot()->DetectConflicts();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: bench_server [--json out] [--smoke]\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_server [--json out] [--smoke]\n");
      return 2;
    }
  }

  const size_t players = smoke ? 100 : 400;
  const size_t requests_each = smoke ? 200 : 2000;
  const size_t edit_batches = smoke ? 10 : 50;
  constexpr int kTenants = 4;

  // One registry: KB "default" serves the single-KB series, and
  // kb0..kb3 serve the multi-tenant series. All engines share the
  // registry's worker pool, which also runs the HTTP connections.
  api::EngineRegistry::Options registry_options;
  registry_options.num_threads = 8;
  api::EngineRegistry registry(registry_options);
  auto default_kb = registry.Create("default");
  if (!default_kb.ok() || !SeedEngine(default_kb->get(), players, 20170901)) {
    std::fprintf(stderr, "failed to seed default kb\n");
    return 1;
  }
  for (int k = 0; k < kTenants; ++k) {
    auto kb = registry.Create(StringPrintf("kb%d", k));
    // Distinct seeds: tenants hold different graphs, as real tenants do.
    if (!kb.ok() ||
        !SeedEngine(kb->get(), players,
                    static_cast<unsigned>(20170901 + k + 1))) {
      std::fprintf(stderr, "failed to seed kb%d\n", k);
      return 1;
    }
  }

  server::HttpServer::Options options;
  options.port = 0;
  options.pool = registry.pool();
  server::HttpServer http(options, server::MakeApiHandler(&registry));
  auto port = http.Start();
  if (!port.ok()) {
    std::fprintf(stderr, "%s\n", port.status().ToString().c_str());
    return 1;
  }

  const std::vector<std::string> single_kb_paths = ReadPaths("default");
  BenchJson bench("server_throughput");
  std::printf("bench_server: %zu players, %zu req/client, port %d\n",
              players, requests_each, *port);

  // ---- read-only scaling (one KB) ----
  for (int clients : {1, 2, 4}) {
    std::atomic<bool> failed{false};
    const auto base = SnapAll();
    Timer timer;
    const size_t completed =
        RunReaders(*port, clients, requests_each, single_kb_paths, &failed);
    const double ms = timer.ElapsedMillis();
    if (failed.load()) {
      std::fprintf(stderr, "read workload failed\n");
      return 1;
    }
    const double rps = 1000.0 * static_cast<double>(completed) / ms;
    bench.NewRecord(StringPrintf("readonly/clients=%d", clients));
    bench.Metric("clients", clients);
    bench.Metric("requests", static_cast<double>(completed));
    bench.Metric("total_ms", ms);
    bench.Metric("requests_per_sec", rps);
    std::printf("  readonly clients=%d: %zu req in %.1f ms (%.0f req/s)\n",
                clients, completed, ms, rps);
    RecordLatency(&bench, DeltaSince(base));
  }

  // ---- mixed: 3 readers + 1 edit client ----
  {
    std::atomic<bool> failed{false};
    std::atomic<bool> readers_done{false};
    std::atomic<size_t> edits_done{0};
    double edit_ms_total = 0.0;
    const auto base = SnapAll();
    std::thread editor([&] {
      Client client(*port);
      if (!client.ok()) {
        failed.store(true);
        return;
      }
      Timer edit_timer;
      for (size_t b = 0; b < edit_batches && !readers_done.load(); ++b) {
        const std::string script = StringPrintf(
            "{\"script\":\"+ benchPlayer%zu playsFor team%zu "
            "[%zu,%zu] 0.8 .\\n\"}",
            b, b % 8, 1990 + b % 20, 1994 + b % 20);
        if (client.Round("POST", "/v1/kb/default/edits", script) != 200) {
          failed.store(true);
          return;
        }
        ++edits_done;
      }
      edit_ms_total = edit_timer.ElapsedMillis();
    });
    Timer timer;
    const size_t completed =
        RunReaders(*port, 3, requests_each, single_kb_paths, &failed);
    const double ms = timer.ElapsedMillis();
    readers_done.store(true);
    editor.join();
    if (failed.load()) {
      std::fprintf(stderr, "mixed workload failed\n");
      return 1;
    }
    const double rps = 1000.0 * static_cast<double>(completed) / ms;
    const size_t edits = edits_done.load();
    bench.NewRecord("mixed/readers=3+editor=1");
    bench.Metric("read_requests", static_cast<double>(completed));
    bench.Metric("total_ms", ms);
    bench.Metric("read_requests_per_sec", rps);
    bench.Metric("edit_batches", static_cast<double>(edits));
    bench.Metric("edit_ms_mean",
                 edits == 0 ? 0.0 : edit_ms_total / static_cast<double>(edits));
    std::printf(
        "  mixed readers=3: %zu req in %.1f ms (%.0f req/s), "
        "%zu edit batches (%.1f ms/batch)\n",
        completed, ms, rps, edits,
        edits == 0 ? 0.0 : edit_ms_total / static_cast<double>(edits));
    RecordLatency(&bench, DeltaSince(base));
  }

  // ---- multi-tenant: 4 clients, reads spread over 4 KBs ----
  {
    std::vector<std::string> tenant_paths;
    for (int k = 0; k < kTenants; ++k) {
      for (const std::string& path : ReadPaths(StringPrintf("kb%d", k))) {
        tenant_paths.push_back(path);
      }
    }
    std::atomic<bool> failed{false};
    const auto base = SnapAll();
    Timer timer;
    const size_t completed =
        RunReaders(*port, kTenants, requests_each, tenant_paths, &failed);
    const double ms = timer.ElapsedMillis();
    if (failed.load()) {
      std::fprintf(stderr, "multi-tenant workload failed\n");
      return 1;
    }
    const double rps = 1000.0 * static_cast<double>(completed) / ms;
    bench.NewRecord(StringPrintf("multitenant/kbs=%d/clients=%d", kTenants,
                                 kTenants));
    bench.Metric("kbs", kTenants);
    bench.Metric("clients", kTenants);
    bench.Metric("requests", static_cast<double>(completed));
    bench.Metric("total_ms", ms);
    bench.Metric("requests_per_sec", rps);
    std::printf("  multitenant kbs=%d clients=%d: %zu req in %.1f ms"
                " (%.0f req/s)\n",
                kTenants, kTenants, completed, ms, rps);
    RecordLatency(&bench, DeltaSince(base));
  }

  // ---- per-endpoint latency distribution over the whole run ----
  for (const std::string& endpoint : kTimedEndpoints) {
    const obs::Histogram::Snapshot snap = SnapEndpoint(endpoint);
    if (snap.count == 0) continue;
    bench.NewRecord(StringPrintf("latency/%s", endpoint.c_str()));
    bench.Metric("requests", static_cast<double>(snap.count));
    bench.Metric("mean_micros", static_cast<double>(snap.sum) /
                                    static_cast<double>(snap.count));
    bench.Metric("p50_micros", static_cast<double>(snap.Quantile(0.50)));
    bench.Metric("p95_micros", static_cast<double>(snap.Quantile(0.95)));
    bench.Metric("p99_micros", static_cast<double>(snap.Quantile(0.99)));
    std::printf("  latency %s: n=%llu p50=%llu µs p95=%llu µs p99=%llu µs\n",
                endpoint.c_str(),
                static_cast<unsigned long long>(snap.count),
                static_cast<unsigned long long>(snap.Quantile(0.50)),
                static_cast<unsigned long long>(snap.Quantile(0.95)),
                static_cast<unsigned long long>(snap.Quantile(0.99)));
  }

  http.Stop();

  if (!json_path.empty()) {
    if (!bench.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
