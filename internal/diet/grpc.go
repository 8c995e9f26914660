package diet

// GridRPC compatibility layer. The paper (§5.3.1) notes that "the client API
// follows the GridRPC definition: all diet_ functions are 'duplicated' with
// grpc_ functions". This file provides the same duplication in Go: the
// standard GridRPC verbs expressed over the Client and a FunctionHandle that
// binds a server to a service name, per Seymour et al. 2002.

import "fmt"

// FunctionHandle associates a server with a service name, the GridRPC
// grpc_function_handle_t. A default handle lets the middleware pick the
// server on each call; a bound handle pins one server.
type FunctionHandle struct {
	client  *Client
	Service string
	Bound   *ServerRef // nil = let the MA choose per call
}

// GrpcInitialize opens a session from a configuration file
// (grpc_initialize).
func GrpcInitialize(configPath string) (*Client, error) { return Initialize(configPath) }

// GrpcFinalize closes the session (grpc_finalize).
func GrpcFinalize(c *Client) { c.Finalize() }

// FunctionHandleDefault creates a handle that lets the middleware choose the
// server for every call (grpc_function_handle_default).
func (c *Client) FunctionHandleDefault(service string) (*FunctionHandle, error) {
	if service == "" {
		return nil, fmt.Errorf("diet: function handle needs a service name")
	}
	return &FunctionHandle{client: c, Service: service}, nil
}

// FunctionHandleInit creates a handle bound to a specific server
// (grpc_function_handle_init).
func (c *Client) FunctionHandleInit(service string, server ServerRef) (*FunctionHandle, error) {
	h, err := c.FunctionHandleDefault(service)
	if err != nil {
		return nil, err
	}
	h.Bound = &server
	return h, nil
}

// GrpcCall performs a blocking call through the handle (grpc_call).
func (h *FunctionHandle) GrpcCall(p *Profile, opts ...CallOption) (*CallInfo, error) {
	if err := h.check(p); err != nil {
		return nil, err
	}
	return h.client.Call(p, h.options(opts)...)
}

// GrpcCallAsync performs a non-blocking call through the handle
// (grpc_call_async); the returned AsyncCall is the GridRPC session ID.
func (h *FunctionHandle) GrpcCallAsync(p *Profile, opts ...CallOption) *AsyncCall {
	if err := h.check(p); err != nil {
		a := &AsyncCall{done: make(chan struct{}), err: err}
		close(a.done)
		return a
	}
	var a *AsyncCall
	h.client.Call(p, append(h.options(opts), WithAsync(&a))...)
	return a
}

// check rejects a profile built for another service than the handle's.
func (h *FunctionHandle) check(p *Profile) error {
	if p.Service != h.Service {
		return fmt.Errorf("diet: profile is for %q, handle is for %q", p.Service, h.Service)
	}
	return nil
}

// options pins a bound handle's server by handing Call a one-server ranked
// list, which skips the finding phase; the caller's options still apply.
func (h *FunctionHandle) options(opts []CallOption) []CallOption {
	if h.Bound == nil {
		return opts
	}
	return append(append([]CallOption(nil), opts...),
		WithServers(&SubmitReply{Servers: []ServerRef{*h.Bound}}, 0))
}

// GrpcWait blocks on one async call (grpc_wait).
func GrpcWait(a *AsyncCall) (*CallInfo, error) { return a.Wait() }

// GrpcWaitAll blocks on a set of async calls (grpc_wait_all).
func GrpcWaitAll(calls []*AsyncCall) error { return WaitAll(calls) }

// GrpcWaitAny blocks until any one of the calls completes and returns its
// index (grpc_wait_any).
func GrpcWaitAny(calls []*AsyncCall) (int, *CallInfo, error) {
	if len(calls) == 0 {
		return -1, nil, fmt.Errorf("diet: GrpcWaitAny on empty set")
	}
	type done struct {
		idx  int
		info *CallInfo
		err  error
	}
	ch := make(chan done, len(calls))
	for i, a := range calls {
		go func(i int, a *AsyncCall) {
			info, err := a.Wait()
			ch <- done{i, info, err}
		}(i, a)
	}
	d := <-ch
	return d.idx, d.info, d.err
}
