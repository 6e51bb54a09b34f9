// Workload `serve`: an open loop over loopback HTTP/1.1 to an in-process
// ServeApp (defaults: 2 HTTP workers, max_in_flight 256, no quotas) on a
// 1-worker FlowEngine over an 8x8 grid. At 64 nodes the grid is at the
// engine's exact cutoff, so Dinic answers every max_flow and the time
// goes to HTTP parsing, the JSON wire format, admission, dispatch and
// completion callbacks. A short closed loop on nproc connections follows
// and measures saturation.
//
// Also here: the pipelined HTTP client the open and closed loops share,
// and the serve-layer probe other workloads' traced runs use.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.h"
#include "serve/serve_app.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Offered rate of the open loop. The closed loop saturates at 25-33k
// requests/s on a 4-vCPU x86-64 VM (Release build); at 8000/s one run in
// five there built a backlog during a host stall and its p90 rose 6x, so
// the rate sits well below saturation, where runs are repeatable.
constexpr double kServeRate = 2000.0;
constexpr int kOpenLoopConnections = 2;
constexpr int kSetups = 15;
constexpr std::size_t kCounterPrefix = 64;

// A blocking keep-alive HTTP/1.1 connection that may have several
// requests in flight (pipelining): responses come back in request order.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the serve port failed");
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool send_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Unblocks a reader on the other thread after a send failure.
  void shutdown() { ::shutdown(fd_, SHUT_RDWR); }

  // Reads the next response. False on a transport error.
  bool read_response(int* status, std::string* body) {
    std::size_t header_end;
    while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return false;
    }
    *status = -1;
    std::sscanf(buf_.c_str(), "HTTP/1.1 %d", status);
    const std::size_t cl = buf_.find("Content-Length: ");
    if (cl == std::string::npos || cl > header_end) return false;
    const std::size_t length =
        std::strtoull(buf_.c_str() + cl + 16, nullptr, 10);
    const std::size_t body_start = header_end + 4;
    while (buf_.size() < body_start + length) {
      if (!fill()) return false;
    }
    body->assign(buf_, body_start, length);
    buf_.erase(0, body_start + length);
    return true;
  }

 private:
  bool fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

std::string wire_request(const std::string& body) {
  return "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

struct HttpRequest {
  std::string body;
  double scheduled_s = 0.0;  // offset from the start of the burst
  double expected = 0.0;     // exact max-flow value
};

// What one 200 response said.
struct Reply {
  int status = -1;
  double seconds = 0.0;
  double value = 0.0;
  bool sherman = false;
  double iterations = 0.0;
  double rounds = 0.0;
  bool converged = true;
};

Reply parse_reply(int status, const std::string& body) {
  Reply r;
  r.status = status;
  if (status != 200) return r;
  const dmf::serve::Json doc = dmf::serve::Json::parse(body);
  r.seconds = doc.find("seconds")->as_number("seconds");
  r.sherman = doc.find("solver")->as_string("solver") == "sherman-approx";
  const dmf::serve::Json& result = *doc.find("result");
  r.value = result.find("value")->as_number("value");
  r.iterations =
      result.find("gradient_iterations")->as_number("gradient_iterations");
  r.rounds = result.find("rounds")->as_number("rounds");
  r.converged = result.find("converged")->as_bool("converged");
  return r;
}

struct OpenLoopStats {
  std::int64_t sent = 0;
  std::int64_t ok = 0;      // 200 with the right value
  std::int64_t shed = 0;    // 429 and 503
  std::int64_t errors = 0;  // any other status, transport errors
  std::int64_t wrong = 0;   // 200 with a wrong value
  std::vector<double> latency_ms;   // scheduled send to last byte (200s)
  std::vector<double> overhead_ms;  // round trip minus engine `seconds`
  std::vector<double> lag_ms;       // actual send minus scheduled send
  std::vector<Reply> replies;       // by request index
  double wall_s = 0.0;
  std::string first_error;
};

// FIFO of request indices in flight on one connection; -1 ends it.
class InFlight {
 public:
  void push(int index) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(index);
    }
    cv_.notify_one();
  }
  int pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !queue_.empty(); });
    const int index = queue_.front();
    queue_.pop_front();
    return index;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> queue_;
};

std::unique_ptr<dmf::serve::ServeApp> start_app(dmf::FlowEngine& engine) {
  auto app = std::make_unique<dmf::serve::ServeApp>(
      engine, dmf::serve::ServeAppOptions{});
  std::string error;
  if (!app->start(&error)) {
    throw std::runtime_error("ServeApp failed to start: " + error);
  }
  return app;
}

int hardware_connections() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// Counts every request as attempted and each one without a correct 200
// as failed.
void count_open_loop(Report& report, const OpenLoopStats& stats,
                     std::size_t requests) {
  const auto attempted = static_cast<std::int64_t>(requests);
  report.attempted += attempted;
  report.ok += stats.ok;
  if (stats.ok == attempted) return;
  report.fail("serve: " + std::to_string(stats.wrong) + " wrong, " +
                  std::to_string(stats.shed) + " shed, " +
                  std::to_string(attempted - stats.ok - stats.wrong -
                                 stats.shed) +
                  " other failures of " + std::to_string(requests) +
                  (stats.first_error.empty() ? "" : "; " + stats.first_error),
              attempted - stats.ok);
}

// Counts the requests and keeps the serve-layer samples.
void add_open_loop(Report& report, const OpenLoopStats& stats,
                   std::size_t requests) {
  count_open_loop(report, stats, requests);
  auto& overhead = report.samples["serve.overhead_ms"];
  overhead.insert(overhead.end(), stats.overhead_ms.begin(),
                  stats.overhead_ms.end());
  auto& lag = report.samples["serve.generator_lag_ms"];
  lag.insert(lag.end(), stats.lag_ms.begin(), stats.lag_ms.end());
  report.scalars["serve.shed_fraction"] =
      static_cast<double>(stats.shed) /
      static_cast<double>(std::max<std::int64_t>(1, stats.sent));
}

// `count` max-flow requests on random pairs of `g`, arriving as a Poisson
// process of `rate` per second: sorted uniform arrival times over
// count / rate seconds, so exactly `count` are sent.
std::vector<HttpRequest> make_http_requests(const dmf::Graph& g, int count,
                                            double rate, bool exact,
                                            std::uint64_t seed) {
  dmf::Rng rng(seed ^ 0x5e7e0ULL);
  const auto pairs = random_pairs(g.num_nodes(), count, rng());
  // A Poisson process conditioned on `count` arrivals in the window:
  // sorted uniform arrival times.
  const double window_s = static_cast<double>(count) / rate;
  std::vector<double> arrivals(static_cast<std::size_t>(count));
  for (double& a : arrivals) {
    a = window_s * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::map<std::pair<dmf::NodeId, dmf::NodeId>, double> exact_values;
  std::vector<HttpRequest> out(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto [s, t] = pairs[static_cast<std::size_t>(i)];
    auto [it, fresh] = exact_values.try_emplace({s, t}, 0.0);
    if (fresh) it->second = exact_value(g, s, t);
    HttpRequest& r = out[static_cast<std::size_t>(i)];
    r.body = "{\"kind\":\"max_flow\",\"s\":" + std::to_string(s) +
             ",\"t\":" + std::to_string(t) +
             (exact ? ",\"exact\":true}" : "}");
    r.scheduled_s = arrivals[static_cast<std::size_t>(i)];
    r.expected = it->second;
  }
  return out;
}

// Sends every request at its scheduled time over `connections` pipelined
// keep-alive connections (request i on connection i % connections).
// With a tracer, records one `serve.request` span per request.
OpenLoopStats run_open_loop(int port, const std::vector<HttpRequest>& requests,
                            int connections, Tracer* tracer) {
  const std::size_t n = requests.size();
  std::vector<std::string> wire(n);
  for (std::size_t i = 0; i < n; ++i) wire[i] = wire_request(requests[i].body);
  std::vector<std::int64_t> sent_ns(n, 0), done_ns(n, 0);
  OpenLoopStats stats;
  std::vector<Reply>& replies = stats.replies;
  replies.resize(n);
  std::vector<std::string> problems(n);

  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::unique_ptr<InFlight>> inflight;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Conn>(port));
    inflight.push_back(std::make_unique<InFlight>());
  }
  // Leave the threads time to start before the first scheduled send.
  const std::int64_t start_ns = now_ns() + 20'000'000;
  const Clock::time_point start_tp =
      Clock::now() + std::chrono::nanoseconds(start_ns - now_ns());
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {  // sender
      // The default 50 us timer slack would make every send that late.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i = static_cast<std::size_t>(c); i < n;
           i += static_cast<std::size_t>(connections)) {
        std::this_thread::sleep_until(
            start_tp + std::chrono::nanoseconds(static_cast<std::int64_t>(
                           requests[i].scheduled_s * 1e9)));
        sent_ns[i] = now_ns();
        inflight[c]->push(static_cast<int>(i));
        if (!conns[c]->send_all(wire[i])) {
          conns[c]->shutdown();
          break;
        }
      }
      inflight[c]->push(-1);
    });
    threads.emplace_back([&, c] {  // receiver
      bool broken = false;
      for (int i; (i = inflight[c]->pop()) >= 0;) {
        const auto k = static_cast<std::size_t>(i);
        int status = -1;
        std::string body;
        if (broken || !conns[c]->read_response(&status, &body)) {
          broken = true;
          problems[k] = "transport error";
          continue;
        }
        done_ns[k] = now_ns();
        if (tracer != nullptr) {
          SpanRecord span;
          span.name = "serve.request";
          span.id = tracer->next_id();
          span.query = static_cast<std::uint32_t>(k + 1);
          span.start_ns = sent_ns[k];
          span.end_ns = done_ns[k];
          tracer->record(span);
          // A traced request's latency includes what recording it costs.
          done_ns[k] = now_ns();
        }
        try {
          replies[k] = parse_reply(status, body);
        } catch (const std::exception& e) {
          problems[k] = std::string("bad response: ") + e.what();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::int64_t last_done = start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t scheduled =
        start_ns + static_cast<std::int64_t>(requests[i].scheduled_s * 1e9);
    const Reply& r = replies[i];
    if (sent_ns[i] == 0) {
      ++stats.errors;  // never sent: its connection broke first
      continue;
    }
    ++stats.sent;
    stats.lag_ms.push_back(ms_between(scheduled, sent_ns[i]));
    if (!problems[i].empty()) {
      ++stats.errors;
      if (stats.first_error.empty()) stats.first_error = problems[i];
      continue;
    }
    last_done = std::max(last_done, done_ns[i]);
    if (r.status == 429 || r.status == 503) {
      ++stats.shed;
    } else if (r.status != 200) {
      ++stats.errors;
      if (stats.first_error.empty()) {
        stats.first_error = "HTTP " + std::to_string(r.status);
      }
    } else if (!(std::abs(r.value - requests[i].expected) <=
                 1e-9 * std::max(1.0, requests[i].expected))) {
      ++stats.wrong;
      if (stats.first_error.empty()) {
        stats.first_error = "wrong value for request " + std::to_string(i);
      }
    } else {
      ++stats.ok;
      stats.latency_ms.push_back(ms_between(scheduled, done_ns[i]));
      stats.overhead_ms.push_back(ms_between(sent_ns[i], done_ns[i]) -
                                  r.seconds * 1e3);
    }
  }
  stats.wall_s = ms_between(start_ns, last_done) * 1e-3;
  return stats;
}

// The exact work counters of the first kCounterPrefix replies, which are
// the first requests by index: the same on every run with one seed.
void write_counters(const OpenLoopStats& stats,
                    std::map<std::string, double>& out) {
  PrefixCounters counters;
  for (std::size_t i = 0; i < kCounterPrefix && i < stats.replies.size();
       ++i) {
    const Reply& r = stats.replies[i];
    counters.add(r.sherman, r.iterations, r.rounds, r.converged);
  }
  counters.write(out);
}

// Closed loop for `seconds` on `connections` connections, cycling through
// `requests`; returns completed 200s per second.
double run_closed_loop(int port, const std::vector<HttpRequest>& requests,
                       int connections, double seconds) {
  std::atomic<std::int64_t> completed{0};
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<Conn> conn;
      try {
        conn = std::make_unique<Conn>(port);
      } catch (const std::exception&) {
        return;  // the connection's requests count as not completed
      }
      std::size_t i = static_cast<std::size_t>(c);
      while (now_ns() < deadline) {
        const HttpRequest& r = requests[i % requests.size()];
        int status = -1;
        std::string body;
        if (!conn->send_all(wire_request(r.body)) ||
            !conn->read_response(&status, &body)) {
          return;
        }
        if (status == 200) completed.fetch_add(1, std::memory_order_relaxed);
        i += static_cast<std::size_t>(connections);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(completed.load()) /
         (ms_between(start, now_ns()) * 1e-3);
}

}  // namespace

void probe_serve(Report& report, dmf::FlowEngine& engine, double seconds) {
  auto app = start_app(engine);
  const double rate = 400.0;
  const auto count = std::max(200, static_cast<int>(rate * seconds));
  const std::vector<HttpRequest> requests = make_http_requests(
      *engine.snapshot().graph, count, rate, /*exact=*/true,
      report.options.seed);
  const OpenLoopStats stats =
      run_open_loop(app->http_port(), requests, kOpenLoopConnections, nullptr);
  add_open_loop(report, stats, requests.size());
  report.scalars["serve.saturation_qps"] = run_closed_loop(
      app->http_port(), requests, hardware_connections(), seconds / 2.0);
  app->drain();
}

void run_serve(Report& report) {
  const RunOptions& opts = report.options;
  const dmf::Graph g = make_grid(8, kGraphSeed);

  dmf::EngineOptions options;
  options.threads = 1;
  options.sample_threads = 1;
  std::unique_ptr<dmf::FlowEngine> engine;
  std::unique_ptr<dmf::serve::ServeApp> app;
  for (int k = 0; k < kSetups; ++k) {
    if (app) app->drain();
    app.reset();
    engine.reset();
    const std::int64_t start = now_ns();
    engine = std::make_unique<dmf::FlowEngine>(dmf::Graph(g), options);
    app = start_app(*engine);
    report.setup_s.push_back(ms_between(start, now_ns()) * 1e-3);
  }
  const int port = app->http_port();

  // Untraced runs give the open loop 80% of the budget and the closed
  // loop the rest (at most 2 s); a traced run adds a traced open loop
  // over the same requests, then the probes.
  const double closed_s = std::min(2.0, opts.seconds / 5.0);
  const double open_s =
      opts.trace ? opts.seconds / 3.0 : opts.seconds - closed_s;
  const auto count = static_cast<int>(std::lround(kServeRate * open_s));
  const std::vector<HttpRequest> requests =
      make_http_requests(g, count, kServeRate, /*exact=*/false, opts.seed);

  const OpenLoopStats stats =
      run_open_loop(port, requests, kOpenLoopConnections, nullptr);
  report.latency_ms = stats.latency_ms;
  report.measured_s = stats.wall_s;
  report.value_ratios.assign(static_cast<std::size_t>(stats.ok), 1.0);
  add_open_loop(report, stats, requests.size());
  write_counters(stats, report.counters);
  report.scalars["serve.saturation_qps"] =
      run_closed_loop(port, requests, hardware_connections(), closed_s);
  // The counter prefix once more, on the same server.
  const std::vector<HttpRequest> prefix(
      requests.begin(),
      requests.begin() + static_cast<std::ptrdiff_t>(
                             std::min(kCounterPrefix, requests.size())));
  write_counters(run_open_loop(port, prefix, kOpenLoopConnections, nullptr),
                 report.counters_repeat);
  set_stale_fraction(report, engine->stats());

  if (opts.trace) {
    const OpenLoopStats traced = run_open_loop(
        port, requests, kOpenLoopConnections, &report.tracer);
    report.traced_latency_ms = traced.latency_ms;
    count_open_loop(report, traced, requests.size());
    // The engine's own queueing, seen through tickets on the same graph
    // (HTTP hides it inside the round trip).
    const auto pairs = random_pairs(g.num_nodes(), 2000, opts.seed ^ 0x71c4eULL);
    for (const auto& [s, t] : pairs) {
      const std::int64_t start = now_ns();
      const auto r = engine->submit(dmf::MaxFlowQuery{s, t}).get();
      const double latency = ms_between(start, now_ns());
      report.samples["engine.exec_ms"].push_back(r.seconds * 1e3);
      report.samples["engine.queue_wait_ms"].push_back(latency -
                                                       r.seconds * 1e3);
    }
    probe_solver_layers(report, *engine, {pairs.begin(), pairs.begin() + 4});
    probe_build(report, g, engine->options(), opts.seed);
  }
  app->drain();
  if (opts.trace) probe_mutation(report, *engine, opts.seed);
}

}  // namespace perfbench
