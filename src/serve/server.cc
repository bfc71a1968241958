#include "serve/server.hh"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "util/logging.hh"

namespace parendi::serve {

Server::Server(SessionManager &manager, uint16_t port)
    : manager_(manager)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("serve: socket(): %s", std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        fatal("serve: cannot bind 127.0.0.1:%u: %s",
              static_cast<unsigned>(port), std::strerror(errno));
    if (::listen(listenFd_, 64) < 0)
        fatal("serve: listen(): %s", std::strerror(errno));

    socklen_t alen = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &alen) == 0)
        port_ = ntohs(addr.sin_port);
    else
        port_ = port;
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    acceptThread_ =
        std::thread([this, fd = listenFd_] { acceptLoop(fd); });
}

void
Server::serveForever()
{
    start();
    {
        std::unique_lock<std::mutex> lk(mutex_);
        shutdownCv_.wait(lk, [this] {
            return shutdownRequested_ || stopped_;
        });
    }
    stop();
}

void
Server::stop()
{
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (stopped_)
            return;
        stopped_ = true;
        // Shutting down the listener unblocks accept(); shutting down
        // the connection fds unblocks any recvFrame mid-read.
        ::shutdown(listenFd_, SHUT_RDWR);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    shutdownCv_.notify_all();
    // The listener is closed only once the accept thread is gone: a
    // closed descriptor number can be reused by the OS while accept()
    // still holds it. The accept thread registers no connection after
    // seeing stopped_, so connThreads_ is complete once it has joined.
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);
    {
        std::lock_guard<std::mutex> lk(mutex_);
        threads.swap(connThreads_);
    }
    for (auto &t : threads)
        t.join();
}

bool
Server::shutdownRequested() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return shutdownRequested_;
}

void
Server::acceptLoop(int listenFd)
{
    for (;;) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;     // listener shut down by stop()
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::lock_guard<std::mutex> lk(mutex_);
        if (stopped_) {
            ::close(fd);
            return;
        }
        connFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

void
Server::handleConnection(int fd)
{
    std::string request;
    while (recvFrame(fd, request)) {
        bool shutdownAfter = false;
        std::string response = handleRequest(request, &shutdownAfter);
        bool sent = sendFrame(fd, response);
        if (shutdownAfter) {
            {
                std::lock_guard<std::mutex> lk(mutex_);
                shutdownRequested_ = true;
            }
            shutdownCv_.notify_all();
        }
        if (!sent || shutdownAfter)
            break;
    }
    // Deregister before closing so stop() never shutdown()s a
    // descriptor number the OS may have already reused.
    {
        std::lock_guard<std::mutex> lk(mutex_);
        connFds_.erase(
            std::remove(connFds_.begin(), connFds_.end(), fd),
            connFds_.end());
    }
    ::close(fd);
}

namespace {

std::string
errorResponse(const std::string &message)
{
    WireWriter w;
    w.u8(static_cast<uint8_t>(Status::Error));
    w.str(message);
    return w.data();
}

} // namespace

std::string
Server::handleRequest(const std::string &request, bool *shutdownAfter)
{
    WireReader r(request);
    const Op op = static_cast<Op>(r.u8());
    WireWriter w;
    w.u8(static_cast<uint8_t>(Status::Ok));
    std::string err;

    switch (op) {
      case Op::Create: {
        SessionOptions sopt;
        std::string design = r.str();
        sopt.engine = r.str();
        sopt.threads = r.u32();
        sopt.cgen = r.u8() != 0;
        sopt.batch = r.u64();
        sopt.replicas = r.u32();
        if (!r.ok())
            return errorResponse("malformed Create request");
        bool native = false;
        uint64_t id =
            manager_.createSession(design, sopt, &err, &native);
        if (!id)
            return errorResponse(err);
        w.u64(id);
        w.u8(native ? 1 : 0);
        return w.data();
      }
      case Op::Step: {
        uint64_t id = r.u64();
        uint64_t n = r.u64();
        if (!r.ok())
            return errorResponse("malformed Step request");
        uint64_t cycles = 0;
        if (!manager_.step(id, n, &cycles, &err))
            return errorResponse(err);
        w.u64(cycles);
        return w.data();
      }
      case Op::Poke: {
        uint64_t id = r.u64();
        std::string input = r.str();
        rtl::BitVec value = r.bitvec();
        if (!r.ok())
            return errorResponse("malformed Poke request");
        if (!manager_.poke(id, input, value, &err))
            return errorResponse(err);
        return w.data();
      }
      case Op::Peek:
      case Op::PeekRegister: {
        uint64_t id = r.u64();
        std::string name = r.str();
        if (!r.ok())
            return errorResponse("malformed Peek request");
        rtl::BitVec out;
        bool ok = op == Op::Peek
            ? manager_.peek(id, name, &out, &err)
            : manager_.peekRegister(id, name, &out, &err);
        if (!ok)
            return errorResponse(err);
        w.bitvec(out);
        return w.data();
      }
      case Op::Checkpoint: {
        uint64_t id = r.u64();
        if (!r.ok())
            return errorResponse("malformed Checkpoint request");
        std::string blob;
        if (!manager_.checkpoint(id, &blob, &err))
            return errorResponse(err);
        w.str(blob);
        return w.data();
      }
      case Op::Restore: {
        uint64_t id = r.u64();
        std::string blob = r.str();
        if (!r.ok())
            return errorResponse("malformed Restore request");
        if (!manager_.restore(id, blob, &err))
            return errorResponse(err);
        return w.data();
      }
      case Op::Destroy: {
        uint64_t id = r.u64();
        if (!r.ok())
            return errorResponse("malformed Destroy request");
        if (!manager_.destroySession(id, &err))
            return errorResponse(err);
        return w.data();
      }
      case Op::Stats: {
        auto snap = manager_.counters().snapshot();
        w.u32(static_cast<uint32_t>(snap.size()));
        for (const auto &[name, value] : snap) {
            w.str(name);
            w.u64(value);
        }
        return w.data();
      }
      case Op::Shutdown:
        *shutdownAfter = true;
        return w.data();
    }
    return errorResponse(
        strprintf("unknown opcode %u",
                  static_cast<unsigned>(static_cast<uint8_t>(op))));
}

} // namespace parendi::serve
