#include "e2e/daemon.hpp"

#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "e2e/measure.hpp"

namespace e2e {

namespace svc = ppd::svc;

Daemon::Daemon(std::string dir, std::size_t jobs)
    : dir_(std::move(dir)), socket_(dir_ + "/sock") {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_ + "/cache");
  svc::Server::Options options;
  options.socket_path = socket_;
  options.name = "bench_e2e";
  options.jobs = jobs;
  options.cache.dir = dir_ + "/cache";
  server_ = std::make_unique<svc::Server>(options);
  const ppd::support::Status status = server_->start();
  if (!status.is_ok()) {
    server_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
    throw std::runtime_error("server start: " + status.to_string());
  }
}

Daemon::~Daemon() {
  server_->stop();
  server_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

std::unique_ptr<svc::Client> Daemon::connect() const {
  auto client = std::make_unique<svc::Client>();
  const ppd::support::Status status = client->connect(socket_, "bench_e2e");
  if (!status.is_ok()) throw std::runtime_error("connect: " + status.to_string());
  return client;
}

Exchange exchange(svc::Client& client, const std::string& bytes, bool refresh,
                  const std::string& reference) {
  Exchange out;
  svc::Client::RequestOptions options;
  options.refresh = refresh;
  auto gap = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  const Clock::time_point start = Clock::now();
  Clock::time_point queued{};
  Clock::time_point last = start;
  bool first = true;
  const svc::Client::Result result =
      client.analyze(bytes, options, [&](const svc::ProgressPayload& progress) {
        const Clock::time_point now = Clock::now();
        if (first) out.accept_ms = gap(start, now);
        first = false;
        if (progress.stage == "queued") queued = now;
        if (progress.stage == "running") out.queue_ms = gap(queued, now);
        if (progress.stage == "analyzed") out.analysis_ms = gap(last, now);
        last = now;
      });
  const Clock::time_point end = Clock::now();
  out.total_ms = gap(start, end);
  out.reply_ms = gap(last, end);
  out.cached = result.cached;
  if (!result.status.is_ok()) {
    out.rejected = result.status.code() == ppd::support::ErrorCode::Overloaded;
    out.error = result.status.to_string();
    return out;
  }
  out.ok = result.report == reference;
  if (!out.ok) out.error = "report differs from the offline reference";
  return out;
}

}  // namespace e2e
