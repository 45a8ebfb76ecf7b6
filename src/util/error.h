// Error handling primitives shared by all fpkit modules.
//
// fpkit reports contract violations by throwing exceptions derived from
// fp::Error. `require` guards user-facing preconditions (bad input files,
// inconsistent circuit descriptions), `ensure` guards internal invariants
// whose failure indicates a bug in fpkit itself.
//
// Every Error carries a stable machine-readable code (ErrorCode) and an
// optional context chain ("flow.analyze_initial", "site=solver.step")
// appended as the exception unwinds, so a production log line identifies
// the failing stage without a debugger. exit_code_for maps codes onto the
// exit contract documented in docs/ROBUSTNESS.md.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fp {

/// Stable error codes; the string forms ("FP-IO", ...) are part of the
/// public contract and never change meaning across releases.
enum class ErrorCode {
  Internal,      // FP-INTERNAL: invariant broken inside fpkit
  InvalidInput,  // FP-INVALID : caller violated a documented precondition
  Io,            // FP-IO      : unreadable or malformed file
  Check,         // FP-CHECK   : a stage-gate design-rule check failed
  Solver,        // FP-SOLVER  : every solver backend diverged
  FaultInjected, // FP-FAULT   : a deterministic fault-injection site fired
  Crash,         // FP-CRASH   : a worker process died on a signal (farm)
  Timeout,       // FP-TIMEOUT : a worker exceeded its wall/heartbeat cap
  Protocol,      // FP-PROTO   : malformed serve request (fpkit serve)
};

[[nodiscard]] constexpr std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::Internal:
      return "FP-INTERNAL";
    case ErrorCode::InvalidInput:
      return "FP-INVALID";
    case ErrorCode::Io:
      return "FP-IO";
    case ErrorCode::Check:
      return "FP-CHECK";
    case ErrorCode::Solver:
      return "FP-SOLVER";
    case ErrorCode::FaultInjected:
      return "FP-FAULT";
    case ErrorCode::Crash:
      return "FP-CRASH";
    case ErrorCode::Timeout:
      return "FP-TIMEOUT";
    case ErrorCode::Protocol:
      return "FP-PROTO";
  }
  return "FP-UNKNOWN";
}

/// The documented exit code of an error that ends a command
/// (docs/ROBUSTNESS.md): bad input is the caller's fault (2), everything
/// else is internal (4).
[[nodiscard]] constexpr int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::InvalidInput:
    case ErrorCode::Io:
    case ErrorCode::Protocol:
      return 2;
    case ErrorCode::Internal:
    case ErrorCode::Check:
    case ErrorCode::Solver:
    case ErrorCode::FaultInjected:
    case ErrorCode::Crash:
    case ErrorCode::Timeout:
      return 4;
  }
  return 4;
}

/// Base class of every exception fpkit throws deliberately.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what,
                 ErrorCode code = ErrorCode::Internal)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

  /// Innermost-first chain of frames added while unwinding.
  [[nodiscard]] const std::vector<std::string>& context() const noexcept {
    return context_;
  }

  /// Appends one frame ("flow.exchange", "site=sa.step") to the chain;
  /// callers catch by reference, add context, and rethrow.
  Error& add_context(std::string frame) {
    context_.push_back(std::move(frame));
    return *this;
  }

  /// "[FP-IO] message (at inner < outer)" -- the log/CLI rendering.
  [[nodiscard]] std::string describe() const {
    std::string out = "[";
    out += to_string(code_);
    out += "] ";
    out += what();
    if (!context_.empty()) {
      out += " (at ";
      for (std::size_t i = 0; i < context_.size(); ++i) {
        if (i > 0) out += " < ";
        out += context_[i];
      }
      out += ")";
    }
    return out;
  }

 private:
  ErrorCode code_;
  std::vector<std::string> context_;
};

/// Thrown when caller-supplied input violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what)
      : Error(what, ErrorCode::InvalidInput) {}
};

/// Thrown when an internal invariant fails (a bug in fpkit, not the caller).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what)
      : Error(what, ErrorCode::Internal) {}
};

/// Thrown by I/O helpers on malformed or unreadable files.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what, ErrorCode::Io) {}
};

/// Thrown by solve() when the whole fallback chain diverged (see
/// power/solver.h); the message lists every attempted backend.
class SolverError : public Error {
 public:
  explicit SolverError(const std::string& what)
      : Error(what, ErrorCode::Solver) {}
};

/// Thrown by the serve protocol layer (session/protocol.h) on a request
/// line that is not a well-formed JSON-RPC request. The daemon answers
/// with an FP-PROTO error response and keeps serving; the CLI maps the
/// code onto exit 2 (bad input) once the session drains.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what)
      : Error(what, ErrorCode::Protocol) {}
};

/// Throws InvalidArgument with `message` unless `condition` holds.
inline void require(bool condition, std::string_view message) {
  if (!condition) throw InvalidArgument(std::string(message));
}

/// Throws InternalError with `message` unless `condition` holds.
inline void ensure(bool condition, std::string_view message) {
  if (!condition) throw InternalError(std::string(message));
}

}  // namespace fp
