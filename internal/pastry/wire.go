package pastry

import "past/internal/wire"

// RegisterWire binds every Pastry message type to its wire tag
// (16-27), for the TCP transport. The in-process emulation passes
// values directly and does not need this. Tags are part of the frame
// format: add new ones at the end, never renumber.
func RegisterWire() {
	wire.Register[RouteRequest](16)
	wire.Register[RouteReply](17)
	wire.Register[joinPayload](18)
	wire.Register[Ping](19)
	wire.Register[Pong](20)
	wire.Register[StateRequest](21)
	wire.Register[StateReply](22)
	wire.Register[Announce](23)
	wire.Register[Depart](24)
	wire.Register[RowRequest](25)
	wire.Register[RowReply](26)
	wire.Register[Ack](27)
}

func (m *RouteRequest) AppendWire(b []byte) []byte {
	b = wire.AppendMessage(append(b, m.Key[:]...), m.Payload)
	b = wire.AppendInt(b, int64(m.Hops))
	b = wire.AppendHops(wire.AppendBool(b, m.Traced), m.Trace)
	b = wire.AppendTraceContext(b, m.TC)
	return wire.AppendNodes(b, m.Rows)
}

func (m *RouteRequest) DecodeWire(r *wire.Reader) error {
	m.Key, m.Payload, m.Hops = r.Node(), r.Message(), r.Int()
	m.Traced, m.Trace = r.Bool(), r.Hops()
	m.TC, m.Rows = r.TraceContext(), r.Nodes()
	return r.Err()
}

func (m *RouteReply) AppendWire(b []byte) []byte {
	b = wire.AppendInt(wire.AppendMessage(b, m.Payload), int64(m.Hops))
	b = wire.AppendHops(b, m.Trace)
	b = append(append(b, m.Load), m.Terminal[:]...)
	return wire.AppendNodes(wire.AppendNodes(b, m.Leaf), m.Rows)
}

func (m *RouteReply) DecodeWire(r *wire.Reader) error {
	m.Payload, m.Hops, m.Trace = r.Message(), r.Int(), r.Hops()
	m.Load, m.Terminal, m.Leaf, m.Rows = r.Byte(), r.Node(), r.Nodes(), r.Nodes()
	return r.Err()
}

func (m *joinPayload) AppendWire(b []byte) []byte { return append(b, m.Joiner[:]...) }
func (m *joinPayload) DecodeWire(r *wire.Reader) error {
	m.Joiner = r.Node()
	return r.Err()
}

func (*Ping) AppendWire(b []byte) []byte    { return b }
func (*Ping) DecodeWire(*wire.Reader) error { return nil }

func (*Pong) AppendWire(b []byte) []byte    { return b }
func (*Pong) DecodeWire(*wire.Reader) error { return nil }

func (*StateRequest) AppendWire(b []byte) []byte    { return b }
func (*StateRequest) DecodeWire(*wire.Reader) error { return nil }

func (m *StateReply) AppendWire(b []byte) []byte {
	return wire.AppendNodes(wire.AppendNodes(append(b, m.ID[:]...), m.Leaf), m.Nbrs)
}

func (m *StateReply) DecodeWire(r *wire.Reader) error {
	m.ID, m.Leaf, m.Nbrs = r.Node(), r.Nodes(), r.Nodes()
	return r.Err()
}

func (m *Announce) AppendWire(b []byte) []byte { return append(b, m.NewNode[:]...) }
func (m *Announce) DecodeWire(r *wire.Reader) error {
	m.NewNode = r.Node()
	return r.Err()
}

func (m *Depart) AppendWire(b []byte) []byte { return append(b, m.Node[:]...) }
func (m *Depart) DecodeWire(r *wire.Reader) error {
	m.Node = r.Node()
	return r.Err()
}

func (m *RowRequest) AppendWire(b []byte) []byte { return wire.AppendInt(b, int64(m.Row)) }
func (m *RowRequest) DecodeWire(r *wire.Reader) error {
	m.Row = r.Int()
	return r.Err()
}

func (m *RowReply) AppendWire(b []byte) []byte { return wire.AppendNodes(b, m.Entries) }
func (m *RowReply) DecodeWire(r *wire.Reader) error {
	m.Entries = r.Nodes()
	return r.Err()
}

func (*Ack) AppendWire(b []byte) []byte    { return b }
func (*Ack) DecodeWire(*wire.Reader) error { return nil }
