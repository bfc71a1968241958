/**
 * @file
 * serve::Server — the socket front end of a SessionManager. Binds a
 * TCP listener on 127.0.0.1 (port 0 = ephemeral, query port()),
 * accepts any number of clients and runs one thread per connection;
 * each connection is a sequence of request/response frames (see
 * protocol.hh) dispatched into the shared SessionManager, so
 * concurrency across clients comes from the manager's scheduler, not
 * from the transport. A Shutdown request releases serveForever().
 */

#ifndef PARENDI_SERVE_SERVER_HH
#define PARENDI_SERVE_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/session.hh"

namespace parendi::serve {

class Server
{
  public:
    /** Bind and listen on 127.0.0.1:@p port (0 = pick an ephemeral
     *  port). fatal() if the socket cannot be bound. */
    Server(SessionManager &manager, uint16_t port);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** The bound port (the actual one when constructed with 0). */
    uint16_t port() const { return port_; }

    /** Start the accept thread; returns immediately. */
    void start();

    /** start() + block until a client sends Shutdown, then stop(). */
    void serveForever();

    /** Close the listener and every live connection; join threads.
     *  Idempotent. */
    void stop();

    bool shutdownRequested() const;

  private:
    /** Accept on @p listenFd (the listener as of start(); stop()
     *  closes it only after this loop has returned). */
    void acceptLoop(int listenFd);
    void handleConnection(int fd);
    /** Decode one request, run it against the manager, encode the
     *  response. Never throws. A Shutdown request sets
     *  @p shutdownAfter instead of signalling directly, so the
     *  connection loop can send the response BEFORE stop() closes the
     *  socket out from under it. */
    std::string handleRequest(const std::string &request,
                              bool *shutdownAfter);

    SessionManager &manager_;
    int listenFd_ = -1;     ///< open from construction until stop()
    uint16_t port_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;
    bool stopped_ = false;
    std::vector<int> connFds_;
    std::vector<std::thread> connThreads_;
    std::thread acceptThread_;
};

} // namespace parendi::serve

#endif // PARENDI_SERVE_SERVER_HH
