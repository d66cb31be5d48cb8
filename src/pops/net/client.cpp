#include "pops/net/client.hpp"

#include <stdexcept>
#include <utility>

namespace pops::net {

using util::Json;

namespace {

// Classify every socket-layer failure as ConnectionError. The socket
// layer throws plain runtime_error for both "refused" and "timed out";
// at this layer they are the same thing: the transport failed, the
// request may not have been processed, retrying is legitimate. An
// out-of-range timeout (invalid_argument) is the caller's error and
// propagates unchanged.
TcpStream connect_stream(const std::string& host, std::uint16_t port,
                         const ClientConfig& cfg) {
  try {
    TcpStream stream = TcpStream::connect(host, port, cfg.connect_timeout_ms);
    if (cfg.read_timeout_ms > 0) stream.set_read_timeout_ms(cfg.read_timeout_ms);
    return stream;
  } catch (const std::runtime_error& e) {
    throw ConnectionError(e.what());
  }
}

}  // namespace

SweepClient::SweepClient(const std::string& host, std::uint16_t port,
                         ClientConfig cfg)
    : stream_(connect_stream(host, port, cfg)) {}

Json SweepClient::read_record() {
  std::string line;
  bool got = false;
  try {
    got = stream_.read_line(line);
  } catch (const std::exception& e) {
    throw ConnectionError(e.what());
  }
  if (!got) throw ConnectionError("connection closed by server");
  return Json::parse(line);
}

void SweepClient::write_request(const Json& req) {
  try {
    stream_.write_line(req.dump(0));
  } catch (const std::exception& e) {
    throw ConnectionError(e.what());
  }
}

Json SweepClient::roundtrip(const Json& req) {
  write_request(req);
  const Json reply = read_record();
  if (event_name(reply) == "error") {
    const Json* msg = reply.find("message");
    throw std::runtime_error("server error: " +
                             (msg && msg->is_string() ? msg->as_string()
                                                      : std::string("?")));
  }
  return reply;
}

Json SweepClient::control(const std::string& op) {
  Json req = Json::object();
  req["op"] = op;
  return roundtrip(req);
}

Json SweepClient::trace(bool start) {
  Json req = Json::object();
  req["op"] = "trace";
  if (start) req["start"] = true;
  return roundtrip(req);
}

SweepSummary SweepClient::submit(const service::SweepSpec& spec,
                                 const PointSink& on_point,
                                 const std::map<std::string, std::string>& bench,
                                 double po_load_ff, bool record_runtimes,
                                 std::uint64_t trace_id) {
  write_request(
      make_sweep_request(spec, bench, po_load_ff, record_runtimes, trace_id));

  for (;;) {
    std::string line;
    bool got = false;
    try {
      got = stream_.read_line(line);
    } catch (const std::exception& e) {
      throw ConnectionError(e.what());
    }
    if (!got) throw ConnectionError("connection closed mid-sweep");
    const Json record = Json::parse(line);
    if (!is_event(record)) {
      if (on_point) on_point(record, line);
      continue;
    }
    const std::string event = event_name(record);
    if (event == "error") {
      const Json* msg = record.find("message");
      throw std::runtime_error("sweep failed: " +
                               (msg && msg->is_string() ? msg->as_string()
                                                        : std::string("?")));
    }
    if (event != "done")
      throw std::runtime_error("unexpected event '" + event +
                               "' during sweep");

    SweepSummary out;
    const auto count = [&record](const char* key) -> std::size_t {
      const Json* v = record.find(key);
      return v && v->is_number() ? static_cast<std::size_t>(v->as_number())
                                 : 0;
    };
    out.points = count("points");
    out.unmet = count("unmet");
    if (const Json* cache = record.find("cache")) {
      const auto cache_count = [cache](const char* key) -> std::size_t {
        const Json* v = cache->find(key);
        return v && v->is_number() ? static_cast<std::size_t>(v->as_number())
                                   : 0;
      };
      out.cache_hits = cache_count("hits");
      out.cache_misses = cache_count("misses");
      out.cache_entries = cache_count("entries");
    }
    if (const Json* wall = record.find("wall_ms"))
      if (wall->is_number()) out.wall_ms = wall->as_number();
    return out;
  }
}

}  // namespace pops::net
