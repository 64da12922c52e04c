#ifndef TECORE_SERVER_SERVE_H_
#define TECORE_SERVER_SERVE_H_

namespace tecore {
namespace server {

/// \brief Print the `serve` flag reference to stderr.
void PrintServeUsage();

/// \brief Entry point shared by the `tecore-server` binary and
/// `tecore-cli serve`: parse flags from argv[first_arg..), build the
/// multi-tenant engine registry (recovering `--data-dir` KBs), optionally
/// create one KB and preload a graph and rules into it, start the HTTP
/// server and block until SIGINT/SIGTERM. Returns a process exit code.
///
/// Flags: --host h (default 127.0.0.1), --port n (default 8080, 0 =
/// ephemeral), --threads n (shared connection-worker pool, 0 = auto),
/// --kb name (the KB --graph/--rules preload into, created if missing;
/// default "default"; a server started without --kb, --graph or --rules
/// creates no KB), --graph f, --rules f, --auth-token-file f (enables
/// bearer-token auth for every request). PrintServeUsage lists the rest.
int RunServe(int argc, char** argv, int first_arg);

}  // namespace server
}  // namespace tecore

#endif  // TECORE_SERVER_SERVE_H_
