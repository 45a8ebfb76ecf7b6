#include "session/serve.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <utility>

#include "assign/assigner.h"
#include "io/assignment_file.h"
#include "io/circuit_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "session/protocol.h"
#include "util/error.h"

namespace fp {

bool StreamLineSource::next_line(std::string& line) {
  if (!std::getline(*in_, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

bool PollingFdSource::next_line(std::string& line) {
  // Blocking getline would never wake on SIGINT/SIGTERM (libstdc++
  // retries read() on EINTR), so the daemon reads through short poll
  // windows and re-checks the CancelToken between them.
  while (true) {
    const std::size_t pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      line.assign(buffer_, 0, pos);
      buffer_.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (eof_) {
      if (buffer_.empty()) return false;
      line = std::move(buffer_);
      buffer_.clear();
      return true;
    }
    if (cancel_ != nullptr && cancel_->expired()) return false;
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;  // loop re-checks the cancel token
      return false;
    }
    if (ready == 0) continue;  // poll window expired: re-check cancel
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

namespace {

/// The daemon's mutable state: the loaded package (owning -- the session
/// holds a non-owning pointer into it), the live session, and the watch
/// baselines (metric snapshots the next delta is computed against).
struct ServeState {
  std::unique_ptr<Package> package;
  std::unique_ptr<DesignSession> session;
  bool watching = false;
  std::map<std::string, long long> watch_counters;
  std::map<std::string, double> watch_gauges;
};

long long require_int(const obs::Json& params, const std::string& key) {
  if (!params.has(key)) {
    throw ProtocolError("param \"" + key + "\" is required");
  }
  return param_int(params, key, 0);
}

DesignSession& require_session(ServeState& state) {
  if (!state.session) {
    throw InvalidArgument("no session loaded; send \"load\" first");
  }
  return *state.session;
}

obs::Json evaluation_to_json(const SessionEvaluation& ev) {
  obs::Json j = obs::Json::object();
  j.set("cost", obs::Json::number(ev.cost));
  j.set("dispersion", obs::Json::number(ev.dispersion));
  j.set("increased_density",
        obs::Json::number(static_cast<long long>(ev.increased_density)));
  j.set("omega", obs::Json::number(static_cast<long long>(ev.omega)));
  j.set("max_density",
        obs::Json::number(static_cast<long long>(ev.max_density)));
  j.set("flyline_um", obs::Json::number(ev.flyline_um));
  if (ev.have_global) {
    j.set("global_max_density",
          obs::Json::number(static_cast<long long>(ev.global_max_density)));
  }
  if (ev.have_ir) {
    obs::Json ir = obs::Json::object();
    ir.set("max_drop_v", obs::Json::number(ev.ir.max_drop_v));
    ir.set("mean_drop_v", obs::Json::number(ev.ir.mean_drop_v));
    ir.set("supply_pad_count",
           obs::Json::number(static_cast<long long>(ev.ir.supply_pad_count)));
    ir.set("iterations",
           obs::Json::number(static_cast<long long>(ev.ir.solver_iterations)));
    ir.set("converged", obs::Json::boolean(ev.ir.converged));
    ir.set("stop",
           obs::Json::string(std::string(to_string(ev.ir.solver_stop))));
    ir.set("attempts",
           obs::Json::number(static_cast<long long>(ev.ir.solver_attempts)));
    ir.set("warm_started", obs::Json::boolean(ev.warm_started));
    j.set("ir", std::move(ir));
  }
  if (ev.have_check) j.set("check", check_report_to_json(ev.check));
  return j;
}

obs::Json handle_load(ServeState& state, const obs::Json& params,
                      const ServeOptions& options) {
  const std::string circuit = param_string_required(params, "circuit");
  auto package = std::make_unique<Package>(load_circuit(circuit));

  SessionOptions sopts = options.session;
  sopts.grid_spec.nodes_per_side = static_cast<int>(param_int(
      params, "mesh", sopts.grid_spec.nodes_per_side));
  sopts.lambda = param_number(params, "lambda", sopts.lambda);
  sopts.rho = param_number(params, "rho", sopts.rho);
  sopts.phi = param_number(params, "phi", sopts.phi);
  sopts.warm_start = param_bool(params, "warm_start", sopts.warm_start);

  PackageAssignment initial;
  std::string method = param_string(params, "method", "dfa");
  const std::string assignment_file = param_string(params, "assignment", "");
  if (!assignment_file.empty()) {
    initial = load_assignment(assignment_file, *package);
    method = "file";
  } else {
    const AssignmentMethod planned = parse_assignment_method(method);
    const auto seed = static_cast<std::uint64_t>(param_int(params, "seed", 1));
    initial = plan_assignment(*package, planned, seed,
                              static_cast<int>(param_int(params, "cut", 1)));
  }

  auto session = std::make_unique<DesignSession>(
      *package, std::move(initial), std::move(sopts));
  // Replace atomically only once everything above succeeded, so a failed
  // load leaves the previous session serving.
  state.session = std::move(session);
  state.package = std::move(package);

  obs::Json result = obs::Json::object();
  result.set("circuit", obs::Json::string(state.package->name()));
  result.set("alpha", obs::Json::number(static_cast<long long>(
                          state.package->finger_count())));
  result.set("quadrants", obs::Json::number(static_cast<long long>(
                              state.package->quadrant_count())));
  result.set("supply_nets",
             obs::Json::number(static_cast<long long>(
                 state.package->netlist().supply_nets().size())));
  result.set("tiers", obs::Json::number(static_cast<long long>(
                          state.package->netlist().tier_count())));
  result.set("method", obs::Json::string(method));
  result.set("cost", obs::Json::number(state.session->cost()));
  result.set("warm_start",
             obs::Json::boolean(state.session->options().warm_start));
  return result;
}

obs::Json cost_and_depth(const DesignSession& session) {
  obs::Json result = obs::Json::object();
  result.set("cost", obs::Json::number(session.cost()));
  result.set("swaps", obs::Json::number(static_cast<long long>(
                          session.swap_count())));
  return result;
}

obs::Json handle_stats(const DesignSession& session) {
  const SessionStats& s = session.stats();
  obs::Json result = obs::Json::object();
  const auto put = [&result](const char* key, long long value) {
    result.set(key, obs::Json::number(value));
  };
  put("swaps", s.swaps);
  put("undos", s.undos);
  put("evaluations", s.evaluations);
  put("cold_evaluations", s.cold_evaluations);
  put("router_memo_hits", s.router_memo_hits);
  put("router_memo_misses", s.router_memo_misses);
  put("warm_solves", s.warm_solves);
  put("cold_solves", s.cold_solves);
  const CheckEngine::Stats& c = session.check_stats();
  obs::Json check = obs::Json::object();
  check.set("rules_executed", obs::Json::number(c.rules_executed));
  check.set("cache_hits", obs::Json::number(c.cache_hits));
  check.set("swaps_noted", obs::Json::number(c.swaps_noted));
  check.set("incremental_scans", obs::Json::number(c.incremental_scans));
  check.set("full_scans", obs::Json::number(c.full_scans));
  result.set("check", std::move(check));
  return result;
}

obs::Json dispatch(ServeState& state, const ServeRequest& request,
                   const ServeOptions& options, ServeOutcome& outcome,
                   bool& stop) {
  const obs::Json& params = request.params;
  if (request.method == "load") {
    ++outcome.loads;
    obs::Json result = handle_load(state, params, options);
    outcome.final_cost = result.at("cost").as_number();
    outcome.have_final_cost = true;
    return result;
  }
  if (request.method == "swap") {
    DesignSession& session = require_session(state);
    const int quadrant = static_cast<int>(require_int(params, "quadrant"));
    const int finger = static_cast<int>(require_int(params, "finger"));
    if (const std::optional<std::string> why =
            session.swap_illegal(quadrant, finger)) {
      throw InvalidArgument("swap: " + *why);
    }
    session.apply_swap(quadrant, finger);
    ++outcome.swaps;
    obs::Json result = cost_and_depth(session);
    outcome.final_cost = result.at("cost").as_number();
    outcome.have_final_cost = true;
    return result;
  }
  if (request.method == "undo") {
    DesignSession& session = require_session(state);
    if (!session.undo()) {
      throw InvalidArgument("undo: no swap to revert");
    }
    ++outcome.undos;
    obs::Json result = cost_and_depth(session);
    outcome.final_cost = result.at("cost").as_number();
    outcome.have_final_cost = true;
    return result;
  }
  if (request.method == "evaluate") {
    DesignSession& session = require_session(state);
    SessionEvaluateOptions what;
    what.ir = param_bool(params, "ir", what.ir);
    what.check = param_bool(params, "check", what.check);
    what.global_route = param_bool(params, "global_route",
                                   what.global_route);
    const bool cold = param_bool(params, "cold", false);
    const SessionEvaluation ev =
        cold ? session.evaluate_cold(what) : session.evaluate(what);
    ++outcome.evaluations;
    obs::Json result = evaluation_to_json(ev);
    result.set("cold", obs::Json::boolean(cold));
    result.set("swaps", obs::Json::number(static_cast<long long>(
                            session.swap_count())));
    outcome.final_cost = ev.cost;
    outcome.have_final_cost = true;
    return result;
  }
  if (request.method == "checkpoint") {
    DesignSession& session = require_session(state);
    const std::string path = param_string_required(params, "path");
    save_assignment(*state.package, session.assignment(), path);
    obs::Json result = obs::Json::object();
    result.set("path", obs::Json::string(path));
    result.set("swaps", obs::Json::number(static_cast<long long>(
                            session.swap_count())));
    return result;
  }
  if (request.method == "stats") {
    return handle_stats(require_session(state));
  }
  if (request.method == "watch") {
    // Live telemetry (docs/OBSERVABILITY.md "Metrics rollup"): arms
    // metrics collection and streams per-response deltas -- every later
    // response (success or error) carries a top-level "watch" object
    // with the counters that moved and the gauges that changed since the
    // previous response. {"enable": false} turns the stream off.
    const bool enable = param_bool(params, "enable", true);
    obs::Json result = obs::Json::object();
    if (enable) {
      obs::set_metrics_enabled(true);
      state.watch_counters = obs::MetricsRegistry::global().counters();
      state.watch_gauges = obs::MetricsRegistry::global().gauges();
      state.watching = true;
      result.set("counters",
                 obs::Json::number(static_cast<long long>(
                     state.watch_counters.size())));
      result.set("gauges", obs::Json::number(static_cast<long long>(
                               state.watch_gauges.size())));
    } else {
      state.watching = false;
      state.watch_counters.clear();
      state.watch_gauges.clear();
    }
    result.set("watching", obs::Json::boolean(state.watching));
    return result;
  }
  if (request.method == "shutdown") {
    stop = true;
    obs::Json result = obs::Json::object();
    result.set("requests", obs::Json::number(outcome.requests));
    result.set("swaps", obs::Json::number(outcome.swaps));
    result.set("evaluations", obs::Json::number(outcome.evaluations));
    return result;
  }
  throw ProtocolError("unknown method \"" + request.method + "\"");
}

/// Appends the "watch" delta block to a response and advances the
/// baselines: counters report their increment since the last response,
/// gauges their new value; unchanged metrics are omitted.
void attach_watch(ServeState& state, obs::Json& response) {
  std::map<std::string, long long> counters =
      obs::MetricsRegistry::global().counters();
  std::map<std::string, double> gauges =
      obs::MetricsRegistry::global().gauges();
  obs::Json delta_counters = obs::Json::object();
  for (const auto& [name, value] : counters) {
    const auto it = state.watch_counters.find(name);
    const long long before =
        it == state.watch_counters.end() ? 0 : it->second;
    if (value != before) {
      delta_counters.set(name, obs::Json::number(value - before));
    }
  }
  obs::Json delta_gauges = obs::Json::object();
  for (const auto& [name, value] : gauges) {
    const auto it = state.watch_gauges.find(name);
    if (it == state.watch_gauges.end() || it->second != value) {
      delta_gauges.set(name, obs::Json::number(value));
    }
  }
  obs::Json watch = obs::Json::object();
  watch.set("counters", std::move(delta_counters));
  watch.set("gauges", std::move(delta_gauges));
  response.set("watch", std::move(watch));
  state.watch_counters = std::move(counters);
  state.watch_gauges = std::move(gauges);
}

bool blank_line(const std::string& line) {
  return line.find_first_not_of(" \t") == std::string::npos;
}

}  // namespace

ServeOutcome run_serve(LineSource& source, std::ostream& out,
                       const ServeOptions& options) {
  const obs::ScopedSpan span("serve.session", "serve");
  ServeState state;
  ServeOutcome outcome;
  std::string line;
  while (true) {
    if (options.cancel != nullptr && options.cancel->expired()) {
      outcome.interrupted = true;
      break;
    }
    if (!source.next_line(line)) {
      if (options.cancel != nullptr && options.cancel->expired()) {
        outcome.interrupted = true;
      }
      break;
    }
    if (blank_line(line)) continue;
    ++outcome.requests;
    obs::Json id;  // null until the request parses
    obs::Json response;
    bool stop = false;
    try {
      const ServeRequest request = parse_request(line);
      id = request.id;
      std::optional<obs::ScopedSpan> request_span;
      if (obs::tracing_enabled()) {
        request_span.emplace("serve." + request.method, "serve");
      }
      if (obs::metrics_enabled()) {
        obs::count("serve.requests");
        obs::count("serve.method." + request.method);
      }
      response = ok_response(id, dispatch(state, request, options, outcome,
                                          stop));
    } catch (const ProtocolError& error) {
      ++outcome.protocol_errors;
      if (obs::metrics_enabled()) obs::count("serve.protocol_errors");
      response = error_response(id, ErrorCode::Protocol, error.what());
    } catch (const Error& error) {
      ++outcome.errors;
      if (obs::metrics_enabled()) obs::count("serve.errors");
      response = error_response(id, error.code(), error.what());
    } catch (const std::exception& error) {
      ++outcome.errors;
      if (obs::metrics_enabled()) obs::count("serve.errors");
      response = error_response(id, ErrorCode::Internal, error.what());
    }
    if (state.watching) attach_watch(state, response);
    out << response.dump() << '\n' << std::flush;
    if (stop) {
      outcome.shutdown = true;
      break;
    }
  }
  if (obs::metrics_enabled()) {
    obs::count("serve.sessions");
    if (outcome.interrupted) obs::count("serve.interrupted");
  }
  return outcome;
}

ServeOutcome run_serve(std::istream& in, std::ostream& out,
                       const ServeOptions& options) {
  StreamLineSource source(in);
  return run_serve(source, out, options);
}

}  // namespace fp
