package cli

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Serve runs hs until SIGINT or SIGTERM, then shuts down in two phases:
// beginDrain flips the daemon's /readyz unready while the listener is
// still up, so health checkers stop routing here, then the listener
// stops accepting and in-flight requests get up to 15 s to finish. prog
// prefixes the shutdown messages. A listener failure returns its error.
func Serve(prog string, hs *http.Server, beginDrain func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println(prog + ": shutting down")
	beginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, prog+": shutdown:", err)
	}
	return nil
}
