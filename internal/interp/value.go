// Package interp executes IR functions against simulated memory. It is the
// correctness oracle of the reproduction — original and transformed programs
// must produce identical outputs — and the operation-accounting substrate
// that feeds the heterogeneous performance model (Figures 17 and 18).
package interp

import (
	"fmt"

	"repro/internal/ir"
)

// Buffer is a simulated memory object (the target of a pointer).
type Buffer struct {
	// Name identifies the buffer in diagnostics and transfer accounting.
	Name string
	// Data is the raw byte storage.
	Data []byte
}

// NewBuffer allocates a zeroed buffer of n bytes.
func NewBuffer(name string, n int) *Buffer {
	return &Buffer{Name: name, Data: make([]byte, n)}
}

// Pointer addresses a byte offset within a buffer.
type Pointer struct {
	Buf *Buffer
	Off int64
}

// Value is a runtime value: one of int64, float64, pointer.
type Value struct {
	kind kind
	i    int64
	f    float64
	p    Pointer
}

type kind uint8

const (
	kindInt kind = iota
	kindFloat
	kindPtr
)

// IntValue wraps an integer (including booleans as 0/1).
func IntValue(v int64) Value { return Value{kind: kindInt, i: v} }

// FloatValue wraps a float.
func FloatValue(v float64) Value { return Value{kind: kindFloat, f: v} }

// PtrValue wraps a pointer.
func PtrValue(p Pointer) Value { return Value{kind: kindPtr, p: p} }

// Int returns the integer payload.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload.
func (v Value) Float() float64 { return v.f }

// Ptr returns the pointer payload.
func (v Value) Ptr() Pointer { return v.p }

// IsPtr reports whether the value is a pointer.
func (v Value) IsPtr() bool { return v.kind == kindPtr }

// Bool interprets the value as a truth value.
func (v Value) Bool() bool {
	switch v.kind {
	case kindInt:
		return v.i != 0
	case kindFloat:
		return v.f != 0
	default:
		return v.p.Buf != nil
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case kindInt:
		return fmt.Sprintf("%d", v.i)
	case kindFloat:
		return fmt.Sprintf("%g", v.f)
	default:
		if v.p.Buf == nil {
			return "null"
		}
		return fmt.Sprintf("&%s+%d", v.p.Buf.Name, v.p.Off)
	}
}

// --- typed buffer access helpers ---

func (b *Buffer) load(off int64, ty *ir.Type) (Value, error) {
	size := int64(ty.Size())
	if off < 0 || off+size > int64(len(b.Data)) {
		return Value{}, fmt.Errorf("interp: load out of bounds: %s+%d (size %d, buffer %d bytes)", b.Name, off, size, len(b.Data))
	}
	switch ty.Kind {
	case ir.KindBool:
		return IntValue(int64(b.Data[off])), nil
	case ir.KindInt32:
		return IntValue(int64(int32(le32(b.Data[off:])))), nil
	case ir.KindInt64:
		return IntValue(int64(le64(b.Data[off:]))), nil
	case ir.KindFloat:
		return FloatValue(float64(f32frombits(le32(b.Data[off:])))), nil
	case ir.KindDouble:
		return FloatValue(f64frombits(le64(b.Data[off:]))), nil
	case ir.KindPointer:
		// Pointers in memory are stored as buffer-table handles maintained
		// by the Machine; see Machine.loadPtr/storePtr.
		return Value{}, fmt.Errorf("interp: raw pointer load must go through Machine")
	}
	return Value{}, fmt.Errorf("interp: load of unsupported type %s", ty)
}

func (b *Buffer) store(off int64, ty *ir.Type, v Value) error {
	size := int64(ty.Size())
	if off < 0 || off+size > int64(len(b.Data)) {
		return fmt.Errorf("interp: store out of bounds: %s+%d (size %d, buffer %d bytes)", b.Name, off, size, len(b.Data))
	}
	switch ty.Kind {
	case ir.KindBool:
		b.Data[off] = byte(v.Int() & 1)
	case ir.KindInt32:
		put32(b.Data[off:], uint32(v.Int()))
	case ir.KindInt64:
		put64(b.Data[off:], uint64(v.Int()))
	case ir.KindFloat:
		put32(b.Data[off:], f32bits(float32(v.Float())))
	case ir.KindDouble:
		put64(b.Data[off:], f64bits(v.Float()))
	default:
		return fmt.Errorf("interp: store of unsupported type %s", ty)
	}
	return nil
}

// SetFloat64 writes v at element index i (8-byte elements).
func (b *Buffer) SetFloat64(i int, v float64) { put64(b.Data[i*8:], f64bits(v)) }

// Float64At reads element index i.
func (b *Buffer) Float64At(i int) float64 { return f64frombits(le64(b.Data[i*8:])) }

// SetFloat32 writes v at element index i (4-byte elements).
func (b *Buffer) SetFloat32(i int, v float32) { put32(b.Data[i*4:], f32bits(v)) }

// Float32At reads element index i.
func (b *Buffer) Float32At(i int) float32 { return f32frombits(le32(b.Data[i*4:])) }

// SetInt32 writes v at element index i (4-byte elements).
func (b *Buffer) SetInt32(i int, v int32) { put32(b.Data[i*4:], uint32(v)) }

// Int32At reads element index i.
func (b *Buffer) Int32At(i int) int32 { return int32(le32(b.Data[i*4:])) }
