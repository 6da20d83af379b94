#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include <cerrno>
#include <cstring>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dn::server {

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int) { g_stop = 1; }

/// sigaction WITHOUT SA_RESTART: a blocking read/accept returns EINTR
/// instead of resuming, which is how the drain reaches threads parked in
/// the kernel.
void install_stop_handlers() {
  g_stop = 0;
  struct sigaction sa{};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

}  // namespace

void LineReader::restart() {
  text_.clear();
  bytes_ = 0;
  complete_ = false;
}

void LineReader::append(const char* data, std::size_t n) {
  bytes_ += n;
  const std::size_t room =
      limit_ > 0 ? limit_ - std::min(limit_, text_.size()) : n;
  text_.append(data, std::min(n, room));
}

bool LineReader::read(std::istream& in) {
  restart();
  char buf[4096];
  for (;;) {
    in.getline(buf, sizeof buf);
    const auto got = static_cast<std::size_t>(in.gcount());
    if (in.good()) {  // The newline ended the line; gcount counted it.
      append(buf, got - 1);
      complete_ = true;
      return true;
    }
    append(buf, got);
    if (in.fail() && !in.eof() && !in.bad() && got == sizeof buf - 1) {
      in.clear();  // The buffer filled before the newline: read on.
      continue;
    }
    // End of input; a last line may lack its newline.
    complete_ = bytes_ > 0;
    return complete_;
  }
}

std::size_t LineReader::feed(const char* data, std::size_t n) {
  if (complete_) restart();
  const void* nl = std::memchr(data, '\n', n);
  const std::size_t len =
      nl ? static_cast<std::size_t>(static_cast<const char*>(nl) - data) : n;
  append(data, len);
  complete_ = nl != nullptr;
  return complete_ ? len + 1 : n;
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      session_(opts_.config, opts_.durability, opts_.limits) {}

int Server::serve_stream(std::istream& in, std::ostream& out) {
  const Status ds = session_.start_durability();
  if (!ds.ok()) {
    std::fprintf(stderr, "error: %s\n", ds.message().c_str());
    return 1;
  }
  if (opts_.handle_signals) install_stop_handlers();

  struct Item {
    std::string line;
    std::size_t oversized_bytes = 0;  // Nonzero: `line` was not stored.
    Admission admission = Admission::kAccept;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> queue;
  bool input_done = false;

  // The reader stamps admission AT ENQUEUE TIME: the verdict reflects
  // the backlog the request actually joined, and shed markers ride the
  // same queue as real work, keeping responses in request order.
  std::thread reader([&] {
    LineReader line(opts_.limits.max_request_bytes);
    while (!(opts_.handle_signals && g_stop) && line.read(in)) {
      if (line.bytes() == 0) continue;
      {
        std::lock_guard<std::mutex> lk(mu);
        Item item;
        if (line.oversized())
          item.oversized_bytes = line.bytes();
        else
          item.line = line.text();
        if (queue.size() >= opts_.queue_hard_limit)
          item.admission = Admission::kShed;
        else if (queue.size() >= opts_.queue_soft_limit)
          item.admission = Admission::kDegrade;
        queue.push_back(std::move(item));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      input_done = true;
    }
    cv.notify_one();
  });

  // The worker polls the stop flag between requests; the stop signal may
  // have been delivered to THIS thread while the reader sat blocked in
  // read(2), so the drain forwards it — pthread_kill makes the reader's
  // read fail with EINTR, ending its loop.
  bool reader_interrupted = false;
  for (;;) {
    Item item;
    bool have_item = false;
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait_for(lk, std::chrono::milliseconds(100),
                  [&] { return input_done || !queue.empty(); });
      if (!queue.empty()) {
        item = std::move(queue.front());
        queue.pop_front();
        have_item = true;
      } else if (input_done) {
        break;
      }
    }
    if (!have_item) {
      if (opts_.handle_signals && g_stop && !reader_interrupted) {
        reader_interrupted = true;
        ::pthread_kill(reader.native_handle(), SIGTERM);
      }
      continue;
    }
    const json::Value response =
        item.oversized_bytes
            ? session_.reject_oversized(item.oversized_bytes)
            : session_.handle_line(item.line, item.admission);
    response.dump(out);
    out << "\n" << std::flush;
  }
  reader.join();

  // Graceful drain: everything queued got its response; park the state
  // where --recover (or a clean restart) finds it.
  const Status gs = session_.graceful_stop();
  if (!gs.ok()) {
    std::fprintf(stderr, "error: graceful stop: %s\n", gs.message().c_str());
    return 1;
  }
  return out ? 0 : 1;
}

namespace {

bool write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int Server::serve_unix(const std::string& path) {
  const Status ds = session_.start_durability();
  if (!ds.ok()) {
    std::fprintf(stderr, "error: %s\n", ds.message().c_str());
    return 1;
  }
  if (opts_.handle_signals) install_stop_handlers();

  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "error: bad socket path (empty or > %zu bytes)\n",
                 sizeof(addr.sun_path) - 1);
    return 1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return 1;
  }
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 4) != 0) {
    std::fprintf(stderr, "error: bind/listen %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return 1;
  }

  // One client at a time; the session (design, caches, results) stays
  // warm across connections. Socket mode leans on the kernel socket
  // buffer for backpressure, so requests run at full fidelity.
  while (!session_.shutdown_requested() &&
         !(opts_.handle_signals && g_stop)) {
    const int cfd = ::accept(fd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;  // Stop flag rechecked at loop top.
      std::fprintf(stderr, "error: accept: %s\n", std::strerror(errno));
      break;
    }
    LineReader line(opts_.limits.max_request_bytes);
    char chunk[4096];
    bool client_open = true;
    while (client_open) {
      const ssize_t n = ::read(cfd, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          if (opts_.handle_signals && g_stop) break;
          continue;
        }
        break;
      }
      const auto got = static_cast<std::size_t>(n);
      for (std::size_t off = 0; off < got && client_open;) {
        off += line.feed(chunk + off, got - off);
        if (!line.complete() || line.bytes() == 0) continue;
        const json::Value response =
            line.oversized() ? session_.reject_oversized(line.bytes())
                             : session_.handle_line(line.text());
        client_open = write_all(cfd, response.dump() + "\n");
      }
    }
    ::close(cfd);
  }
  ::close(fd);
  ::unlink(path.c_str());
  const Status gs = session_.graceful_stop();
  if (!gs.ok()) {
    std::fprintf(stderr, "error: graceful stop: %s\n", gs.message().c_str());
    return 1;
  }
  return 0;
}

}  // namespace dn::server
