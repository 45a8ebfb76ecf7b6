#include "session/protocol.h"

#include <cmath>
#include <utility>

namespace fp {
namespace {

/// The params value of `key`, or nullptr when absent. Kind checks are the
/// caller's (typed accessors below).
const obs::Json* find_param(const obs::Json& params,
                            const std::string& key) {
  return params.find(key);
}

[[noreturn]] void bad_param(const std::string& key,
                            const std::string& expected) {
  throw ProtocolError("param \"" + key + "\" must be " + expected);
}

}  // namespace

ServeRequest parse_request(const std::string& line) {
  obs::Json doc;
  try {
    doc = obs::json_parse(line);
  } catch (const Error& error) {
    throw ProtocolError(std::string("malformed request line: ") +
                        error.what());
  }
  if (!doc.is_object()) {
    throw ProtocolError("request must be a JSON object");
  }
  // The request takes its values out of the parsed document.
  ServeRequest request;
  if (obs::Json* id = doc.find("id")) request.id = std::move(*id);
  const obs::Json* method = doc.find("method");
  if (method == nullptr || !method->is_string()) {
    throw ProtocolError("request needs a string \"method\"");
  }
  request.method = method->as_string();
  if (obs::Json* params = doc.find("params")) {
    if (!params->is_object()) {
      throw ProtocolError("\"params\" must be an object");
    }
    request.params = std::move(*params);
  }
  return request;
}

// Both responses set their keys in sorted order, so each set appends.
obs::Json ok_response(const obs::Json& id, obs::Json result) {
  obs::Json response = obs::Json::object();
  response.set("id", id);
  response.set("ok", obs::Json::boolean(true));
  response.set("result", std::move(result));
  return response;
}

obs::Json error_response(const obs::Json& id, ErrorCode code,
                         const std::string& message) {
  obs::Json error = obs::Json::object();
  error.set("code", obs::Json::string(std::string(to_string(code))));
  error.set("message", obs::Json::string(message));
  obs::Json response = obs::Json::object();
  response.set("error", std::move(error));
  response.set("id", id);
  response.set("ok", obs::Json::boolean(false));
  return response;
}

std::string param_string(const obs::Json& params, const std::string& key,
                         const std::string& fallback) {
  const obs::Json* value = find_param(params, key);
  if (value == nullptr) return fallback;
  if (!value->is_string()) bad_param(key, "a string");
  return value->as_string();
}

double param_number(const obs::Json& params, const std::string& key,
                    double fallback) {
  const obs::Json* value = find_param(params, key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) bad_param(key, "a number");
  return value->as_number();
}

long long param_int(const obs::Json& params, const std::string& key,
                    long long fallback) {
  const obs::Json* value = find_param(params, key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) bad_param(key, "an integer");
  const double number = value->as_number();
  if (std::nearbyint(number) != number) bad_param(key, "an integer");
  return static_cast<long long>(number);
}

bool param_bool(const obs::Json& params, const std::string& key,
                bool fallback) {
  const obs::Json* value = find_param(params, key);
  if (value == nullptr) return fallback;
  if (value->kind() != obs::Json::Kind::Bool) bad_param(key, "a boolean");
  return value->as_bool();
}

std::string param_string_required(const obs::Json& params,
                                  const std::string& key) {
  const obs::Json* value = find_param(params, key);
  if (value == nullptr) {
    throw ProtocolError("param \"" + key + "\" is required");
  }
  if (!value->is_string()) bad_param(key, "a string");
  return value->as_string();
}

}  // namespace fp
