// Package puddles is a Go implementation of Puddles, the persistent
// memory programming system of Mahar et al., "Puddles: Application-
// Independent Recovery and Location-Independent Data for Persistent
// Memory" (EuroSys 2024).
//
// Puddles provides three properties no prior PM library combines:
//
//   - Application-independent recovery: crash-consistency logs are
//     registered with a privileged daemon (Puddled) which replays them
//     after a dirty shutdown, before any application maps the data —
//     recovery is a property of the stored data, not of the program
//     that wrote it.
//
//   - Native pointers: persistent data stores plain 8-byte virtual
//     addresses, readable by non-PM-aware code, with none of the
//     translation cost or cache bloat of fat pointers.
//
//   - Relocatability: data is divided into puddles inside a machine-
//     wide global persistent address space; pointer maps registered
//     per type let the system find and rewrite every pointer, so pools
//     can be cloned, exported, shipped between machines and imported
//     with on-demand incremental relocation.
//
// Persistent memory itself is simulated (internal/pmem): the
// Device type models a byte-addressable PM with explicit cacheline
// flush/fence semantics and genuine crash injection.
//
// # Quick start
//
//	sys, _ := puddles.NewSystem()
//	defer sys.Shutdown()
//	client := sys.Connect()
//
//	type Node struct {
//		Value uint64
//		Next  puddles.Ptr
//	}
//	nodeT, _ := client.RegisterLayout("Node", Node{})
//
//	pool, _ := client.CreatePool("mydata", 0o600)
//	root, _ := pool.CreateRoot(nodeT.ID, 16)
//
//	client.Run(pool, func(tx *puddles.Tx) error {
//		return tx.SetU64(root, 42) // undo-logged, failure-atomic
//	})
package puddles

import (
	"puddles/internal/core"
	"puddles/internal/daemon"
	"puddles/internal/pmem"
	"puddles/internal/proto"
	"puddles/internal/ptypes"
	"puddles/internal/puddle"
)

// Core types, re-exported from the implementation packages so that
// applications depend only on this module root.
type (
	// Addr is an address in the simulated persistent memory space.
	Addr = pmem.Addr
	// Device is the simulated persistent memory device.
	Device = pmem.Device
	// Ptr marks a persistent pointer field in a Go struct layout; use
	// it with Client.RegisterLayout to derive pointer maps.
	Ptr = ptypes.Ptr
	// TypeID identifies a registered persistent type.
	TypeID = ptypes.TypeID
	// TypeInfo is a registered persistent type's layout.
	TypeInfo = ptypes.TypeInfo
	// PtrField is one pointer-map entry.
	PtrField = ptypes.PtrField
	// Client is a Libpuddles instance (one application).
	Client = core.Client
	// Pool is a named collection of puddles with a root object.
	Pool = core.Pool
	// Tx is a failure-atomic transaction (Libtx).
	Tx = core.Tx
	// ImportStats describes relocation work done by an import.
	ImportStats = core.ImportStats
	// Daemon is a Puddled instance.
	Daemon = daemon.Daemon
	// Stats are daemon counters.
	Stats = proto.Stats
)

// Re-exported errors.
var (
	ErrReadOnly = core.ErrReadOnly
	ErrNoRoot   = core.ErrNoRoot
	ErrTxFailed = core.ErrTxFailed
)

// DefaultPuddleSize is the default puddle size (2 MiB, paper §4.3).
const DefaultPuddleSize = puddle.DefaultSize

// IDOf derives the stable type ID for a type name.
func IDOf(name string) TypeID { return ptypes.IDOf(name) }

// System is one booted machine: a device plus its Puddled daemon.
type System struct {
	dev       *pmem.Device
	d         *daemon.Daemon
	imagePath string
}

// NewSystem boots a machine on a fresh in-memory device.
func NewSystem() (*System, error) {
	return bootOn(pmem.New(), "")
}

// NewChaosSystem boots a machine on a chaos-mode device (volatile
// cachelines, crash injection) for crash-consistency experiments.
func NewChaosSystem(seed int64) (*System, error) {
	return bootOn(pmem.NewChaos(seed), "")
}

// OpenSystemFile boots a machine whose device persists in an image
// file (the DAX-filesystem stand-in): existing state is restored —
// including any pending recovery — and Shutdown saves it back.
func OpenSystemFile(path string) (*System, error) {
	dev := pmem.New()
	if err := dev.RestoreFile(path); err != nil {
		return nil, err
	}
	return bootOn(dev, path)
}

// BootOnDevice boots a daemon on an existing device (advanced use:
// crash experiments that reboot the same device repeatedly).
func BootOnDevice(dev *pmem.Device) (*System, error) {
	return bootOn(dev, "")
}

func bootOn(dev *pmem.Device, imagePath string) (*System, error) {
	d, err := daemon.New(dev)
	if err != nil {
		return nil, err
	}
	return &System{dev: dev, d: d, imagePath: imagePath}, nil
}

// Connect returns a new client (one application) attached to the
// system's daemon over an in-process connection.
func (s *System) Connect() *Client {
	return core.ConnectLocal(s.d)
}

// Device exposes the underlying simulated PM device.
func (s *System) Device() *Device { return s.dev }

// Daemon exposes the underlying Puddled instance.
func (s *System) Daemon() *Daemon { return s.d }

// Stats returns daemon counters.
func (s *System) Stats() Stats { return s.d.Stats() }

// Shutdown cleanly stops the daemon (marking the device cleanly
// closed) and, for file-backed systems, saves the device image.
func (s *System) Shutdown() error {
	s.d.Shutdown()
	if s.imagePath != "" {
		return s.dev.SaveFile(s.imagePath)
	}
	return nil
}

// Crash simulates a power failure WITHOUT a clean shutdown: volatile
// lines resolve randomly (chaos devices), and for file-backed systems
// the surviving bytes are written out. The next OpenSystemFile /
// BootOnDevice runs application-independent recovery.
func (s *System) Crash() error {
	s.dev.CrashNow()
	if s.imagePath != "" {
		return s.dev.SaveFile(s.imagePath)
	}
	return nil
}
