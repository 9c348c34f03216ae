package ingest

import (
	"errors"
	"log"
	"net"
	"sync"
	"time"
)

// ServerOptions configures the TCP feed listener.
type ServerOptions struct {
	// IdleTimeout is the per-connection read deadline, reset on every
	// read: a feed silent for longer is dropped. Zero means the default,
	// 5m; negative disables the deadline.
	IdleTimeout time.Duration
	// Logf receives connection lifecycle messages (default log.Printf).
	Logf func(format string, args ...any)
}

// Server accepts timestamped-NMEA feed connections on a TCP listener and
// pumps every decoded item into the engine. Each connection gets its own
// goroutine, feed counters, and rolling read deadline; backpressure from
// a saturated engine queue blocks the connection's reads, pushing back on
// the sender through TCP flow control.
type Server struct {
	eng  *Engine
	opt  ServerOptions
	ln   net.Listener
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewServer starts accepting feeds on ln; it returns immediately.
func NewServer(eng *Engine, ln net.Listener, opt ServerOptions) *Server {
	if opt.IdleTimeout == 0 {
		opt.IdleTimeout = 5 * time.Minute
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	s := &Server{eng: eng, opt: opt, ln: ln, quit: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Close stops accepting, closes live connections, and waits for the
// per-connection goroutines to drain.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		close(s.quit)
		err = s.ln.Close()
	})
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.opt.Logf("ingest: accept: %v", err)
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	// Closing the listener does not unblock established connections;
	// watch quit and force-close so shutdown is prompt.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-s.quit:
			conn.Close()
		case <-done:
		}
	}()

	fs := s.eng.RegisterFeed(conn.RemoteAddr().String())
	defer fs.Closed.Store(true)
	err := PumpFeed(s.eng, &deadlineConn{Conn: conn, idle: s.opt.IdleTimeout}, fs)
	if err != nil {
		select {
		case <-s.quit: // shutdown-induced close: not a feed error
		default:
			msg := err.Error()
			fs.Err.Store(&msg)
			s.opt.Logf("ingest: feed %s: %v", fs.Remote, err)
		}
	}
}

// deadlineConn resets the read deadline before every Read so only
// end-to-end silence — not a long transfer — trips the idle timeout.
type deadlineConn struct {
	net.Conn
	idle time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.idle > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}
