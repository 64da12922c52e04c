#include "server/serve.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "api/registry.h"
#include "api/version.h"
#include "obs/access_log.h"
#include "rules/parser.h"
#include "server/auth.h"
#include "server/http_server.h"
#include "server/routes.h"
#include "storage/kb_storage.h"
#include "util/string_util.h"

namespace tecore {
namespace server {

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

}  // namespace

void PrintServeUsage() {
  std::fprintf(stderr,
               "usage: tecore-server [--host h] [--port n] [--threads n]"
               " [--kb name]\n"
               "                     [--graph f] [--rules f]"
               " [--auth-token-file f]\n"
               "                     [--data-dir d] [--fsync always|never]"
               " [--max-body-bytes n]\n"
               "                     [--retain n] [--kb-tokens-file f]"
               " [--access-log[=f]]\n"
               "  --host h            bind address (default 127.0.0.1)\n"
               "  --port n            TCP port; 0 picks an ephemeral port"
               " (default 8080)\n"
               "  --threads n         shared connection-worker pool for all"
               " KBs (0 = auto)\n"
               "  --kb name           KB that --graph/--rules preload into,"
               " created at startup\n"
               "                      if missing (default \"default\"; without"
               " --kb, --graph\n"
               "                      or --rules the server holds only the KBs"
               " it recovered)\n"
               "  --graph f           preload a \".tq\" UTKG before serving\n"
               "  --rules f           preload a rule file before serving\n"
               "  --auth-token-file f require 'Authorization: Bearer"
               " <token>' on every\n"
               "                      request (file holds the token;"
               " 401/403 otherwise)\n"
               "  --data-dir d        durable store root: every KB gets a"
               " write-ahead\n"
               "                      edit log + checkpoints under"
               " d/kbs/<name>/ and is\n"
               "                      recovered on restart (omit for"
               " in-memory serving)\n"
               "  --fsync p           WAL sync policy: 'always' (default;"
               " fsync before\n"
               "                      every ack) or 'never' (page cache"
               " only)\n"
               "  --max-body-bytes n  request-body cap; oversized uploads"
               " get 413\n"
               "                      (default 16777216)\n"
               "  --retain n          snapshot versions kept reachable per KB"
               " for\n"
               "                      '?as_of=' time-travel reads and SSE"
               " resume\n"
               "                      (default 8, minimum 1; cheap under"
               " copy-on-write\n"
               "                      chunk sharing)\n"
               "  --kb-tokens-file f  per-KB bearer tokens: one '<kb>"
               " <token>' per line;\n"
               "                      a KB token authorizes only that KB"
               " (cross-KB and\n"
               "                      lifecycle requests get 403; the"
               " --auth-token-file\n"
               "                      service token keeps full access)\n"
               "  --access-log[=f]    log one structured line per request"
               " to f\n"
               "                      (default stderr): ISO timestamp,"
               " method, path,\n"
               "                      status, bytes, micros, request id\n"
               "serves the multi-tenant /v1 JSON API (/v1/kb/{name}/...)"
               " and the\n"
               "Prometheus text exposition at GET /metrics (auth-exempt);"
               " see docs/api.md\n");
}

/// \brief Create `name`, tolerating its existence (after --data-dir
/// recovery the KB may already be registered).
Result<std::shared_ptr<api::Engine>> GetOrCreateKb(
    api::EngineRegistry* registry, const std::string& name) {
  auto created = registry->Create(name);
  if (created.ok() || created.status().code() != StatusCode::kAlreadyExists) {
    return created;
  }
  return registry->Get(name);
}

int RunServe(int argc, char** argv, int first_arg) {
  HttpServer::Options options;
  options.port = 8080;
  int pool_threads = 0;
  std::string graph_file;
  std::string rules_file;
  std::string preload_kb = "default";
  bool kb_given = false;
  std::string auth_token_file;
  std::string kb_tokens_file;
  std::string data_dir;
  storage::FsyncPolicy fsync_policy = storage::FsyncPolicy::kAlways;
  int64_t retain_versions = 8;
  bool access_log_enabled = false;
  std::string access_log_path;
  for (int i = first_arg; i < argc; ++i) {
    const std::string flag = argv[i];
    // --access-log takes an *optional* value, so it uses the
    // --access-log=path form and is handled before the value check.
    const std::string_view access_log_eq = "--access-log=";
    if (flag == "--access-log") {
      access_log_enabled = true;
      continue;
    }
    if (flag.compare(0, access_log_eq.size(), access_log_eq) == 0) {
      access_log_enabled = true;
      access_log_path = flag.substr(access_log_eq.size());
      continue;
    }
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const bool known = flag == "--host" || flag == "--port" ||
                       flag == "--threads" || flag == "--graph" ||
                       flag == "--rules" || flag == "--kb" ||
                       flag == "--auth-token-file" ||
                       flag == "--kb-tokens-file" || flag == "--data-dir" ||
                       flag == "--fsync" || flag == "--max-body-bytes" ||
                       flag == "--retain";
    if (!known) {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      PrintServeUsage();
      return 2;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for '%s'\n", flag.c_str());
      PrintServeUsage();
      return 2;
    }
    ++i;
    if (flag == "--host") {
      options.host = value;
    } else if (flag == "--port" || flag == "--threads") {
      int64_t parsed = 0;
      if (!ParseInt64(value, &parsed) || parsed < 0 || parsed > 65535) {
        std::fprintf(stderr, "invalid %s value '%s'\n", flag.c_str(), value);
        PrintServeUsage();
        return 2;
      }
      (flag == "--port" ? options.port : pool_threads) =
          static_cast<int>(parsed);
    } else if (flag == "--graph") {
      graph_file = value;
    } else if (flag == "--rules") {
      rules_file = value;
    } else if (flag == "--kb") {
      preload_kb = value;
      kb_given = true;
    } else if (flag == "--data-dir") {
      data_dir = value;
    } else if (flag == "--fsync") {
      if (std::strcmp(value, "always") == 0) {
        fsync_policy = storage::FsyncPolicy::kAlways;
      } else if (std::strcmp(value, "never") == 0) {
        fsync_policy = storage::FsyncPolicy::kNever;
      } else {
        std::fprintf(stderr, "invalid --fsync value '%s'\n", value);
        PrintServeUsage();
        return 2;
      }
    } else if (flag == "--max-body-bytes") {
      int64_t parsed = 0;
      if (!ParseInt64(value, &parsed) || parsed <= 0) {
        std::fprintf(stderr, "invalid --max-body-bytes value '%s'\n", value);
        PrintServeUsage();
        return 2;
      }
      options.max_body_bytes = static_cast<size_t>(parsed);
    } else if (flag == "--retain") {
      if (!ParseInt64(value, &retain_versions) || retain_versions < 1) {
        std::fprintf(stderr, "invalid --retain value '%s'\n", value);
        PrintServeUsage();
        return 2;
      }
    } else if (flag == "--kb-tokens-file") {
      kb_tokens_file = value;
    } else {
      auth_token_file = value;
    }
  }

  RouterOptions router;
  if (!auth_token_file.empty()) {
    auto token = LoadAuthTokenFile(auth_token_file);
    if (!token.ok()) {
      std::fprintf(stderr, "%s\n", token.status().ToString().c_str());
      return 1;
    }
    router.auth_token = *token;
  }
  if (!kb_tokens_file.empty()) {
    auto tokens = LoadKbTokensFile(kb_tokens_file);
    if (!tokens.ok()) {
      std::fprintf(stderr, "%s\n", tokens.status().ToString().c_str());
      return 1;
    }
    router.kb_tokens = std::move(*tokens);
  }
  if (access_log_enabled) {
    auto log = obs::AccessLog::Open(access_log_path);
    if (!log.ok()) {
      std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
      return 1;
    }
    router.access_log = std::move(*log);
  }

  // The registry owns the shared worker pool and every tenant engine.
  api::EngineRegistry::Options registry_options;
  registry_options.num_threads = pool_threads;
  registry_options.data_dir = data_dir;
  registry_options.storage.fsync = fsync_policy;
  registry_options.engine.retain_versions =
      static_cast<size_t>(retain_versions);
  api::EngineRegistry registry(registry_options);
  size_t recovered_kbs = 0;
  if (!data_dir.empty()) {
    // Boot-time recovery: every KB under <data-dir>/kbs/ comes back with
    // its checkpoint loaded and WAL tail replayed. Unrecoverable state is
    // a refusal to start, not a silent empty boot.
    auto recovered = registry.RecoverKbs();
    if (!recovered.ok()) {
      std::fprintf(stderr, "%s\n", recovered.status().ToString().c_str());
      return 1;
    }
    recovered_kbs = recovered->size();
  }
  // Only a preload creates a KB: without --kb, --graph or --rules the
  // server holds exactly the KBs it recovered.
  std::shared_ptr<api::Engine> preload;
  if (kb_given || !graph_file.empty() || !rules_file.empty()) {
    auto created = GetOrCreateKb(&registry, preload_kb);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    preload = *created;
  }
  if (!graph_file.empty()) {
    auto loaded = preload->LoadGraphFile(graph_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
  }
  if (!rules_file.empty()) {
    auto parsed = rules::LoadRulesFile(rules_file);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    auto added = preload->AddRules(*parsed);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
      return 1;
    }
  }

  options.pool = registry.pool();
  HttpServer http(options, MakeApiHandler(&registry, router));
  auto port = http.Start();
  if (!port.ok()) {
    std::fprintf(stderr, "%s\n", port.status().ToString().c_str());
    return 1;
  }
  // The exact line CI's smoke script and the bench parse — keep stable.
  std::printf("tecore-server %s listening on http://%s:%d/v1\n",
              api::kTecoreVersion, options.host.c_str(), *port);
  std::string auth_desc = "off";
  if (!router.auth_token.empty() && !router.kb_tokens.empty()) {
    auth_desc = StringPrintf("bearer token + %zu kb tokens",
                             router.kb_tokens.size());
  } else if (!router.auth_token.empty()) {
    auth_desc = "bearer token";
  } else if (!router.kb_tokens.empty()) {
    auth_desc = StringPrintf("%zu kb tokens", router.kb_tokens.size());
  }
  std::printf("  kbs: %zu%s · auth: %s · durability: %s\n",
              registry.size(),
              preload != nullptr
                  ? StringPrintf(" (preload '%s')", preload_kb.c_str()).c_str()
                  : "",
              auth_desc.c_str(),
              data_dir.empty()
                  ? "off"
                  : StringPrintf("%s (fsync %s, %zu recovered)",
                                 data_dir.c_str(),
                                 fsync_policy == storage::FsyncPolicy::kAlways
                                     ? "always"
                                     : "never",
                                 recovered_kbs)
                        .c_str());
  std::fflush(stdout);

  // Block the stop signals, install handlers, then atomically unblock and
  // sleep with sigsuspend — the standard race-free wait (a signal landing
  // between the flag check and the sleep would otherwise be lost).
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  sigset_t stop_set;
  sigemptyset(&stop_set);
  sigaddset(&stop_set, SIGINT);
  sigaddset(&stop_set, SIGTERM);
  sigset_t old_mask;
  sigprocmask(SIG_BLOCK, &stop_set, &old_mask);
  while (g_stop_requested == 0) {
    sigsuspend(&old_mask);
  }
  sigprocmask(SIG_SETMASK, &old_mask, nullptr);
  std::printf("tecore-server shutting down\n");
  http.Stop();
  // Under --fsync never, acknowledged records may still sit in the page
  // cache; a clean shutdown flushes them (kill -9 is what the recovery
  // tests cover).
  for (const auto& info : registry.List()) {
    auto engine = registry.Get(info.name);
    if (engine.ok()) (*engine)->FlushStorage();
  }
  return 0;
}

}  // namespace server
}  // namespace tecore
