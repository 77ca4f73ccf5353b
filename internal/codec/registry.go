package codec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry maps codec IDs to backends. The zero value is not usable; build
// one with NewRegistry. The engine, the archive readers and the servers all
// resolve codecs from the package-level Default registry, which ships with
// the sz and zfp adapters pre-registered; add a backend there with
// Register. A private registry is a test seam for the registry's own
// behaviour, not an engine or archive option.
type Registry struct {
	mu     sync.RWMutex
	codecs map[ID]Codec
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{codecs: make(map[ID]Codec)}
}

// Register adds a codec under its own ID. Registering a nil codec, an empty
// ID, or a duplicate ID is an error.
func (r *Registry) Register(c Codec) error {
	if c == nil {
		return fmt.Errorf("codec: register nil codec")
	}
	id := c.ID()
	if id == "" {
		return fmt.Errorf("codec: register codec with empty ID")
	}
	if len(id) > maxIDLen {
		// The frame envelope stores the ID length in one byte (≤ maxIDLen);
		// rejecting here keeps every registered codec archivable.
		return fmt.Errorf("codec: ID %q longer than %d bytes", id, maxIDLen)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.codecs[id]; dup {
		return fmt.Errorf("codec: %q already registered", id)
	}
	r.codecs[id] = c
	return nil
}

// mustRegister is Register for the package's own init-time registrations.
func (r *Registry) mustRegister(c Codec) {
	if err := r.Register(c); err != nil {
		panic(err)
	}
}

// Lookup resolves an ID to its codec. The error names the unknown ID and
// lists what is registered, so a typo in a -codec flag or a foreign frame
// header produces an actionable message.
func (r *Registry) Lookup(id ID) (Codec, error) {
	r.mu.RLock()
	c, ok := r.codecs[id]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: %w %q (registered: %s)", ErrUnknownCodec, id, r.idList())
	}
	return c, nil
}

// IDs returns the registered codec IDs in sorted order.
func (r *Registry) IDs() []ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ID, 0, len(r.codecs))
	for id := range r.codecs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *Registry) idList() string {
	ids := r.IDs()
	if len(ids) == 0 {
		return "none"
	}
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = string(id)
	}
	return strings.Join(names, ", ")
}

// Default is the registry the engine and CLI resolve codecs from.
var Default = NewRegistry()

func init() {
	Default.mustRegister(szCodec{})
	Default.mustRegister(zfpCodec{})
}

// Register adds a codec to the Default registry.
func Register(c Codec) error { return Default.Register(c) }

// Lookup resolves an ID in the Default registry.
func Lookup(id ID) (Codec, error) { return Default.Lookup(id) }

// IDs lists the Default registry's codecs in sorted order.
func IDs() []ID { return Default.IDs() }
