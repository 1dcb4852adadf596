package wrapper

import (
	"encoding/json"
	"fmt"

	"mse/internal/dom"
	"mse/internal/layout"
)

// wireAttr is the serialized form of a layout.TextAttr.
type wireAttr struct {
	Font  string `json:"font"`
	Size  int    `json:"size"`
	Style int    `json:"style"`
	Color string `json:"color"`
}

func toWireAttrs(attrs []layout.TextAttr) []wireAttr {
	out := make([]wireAttr, len(attrs))
	for i, a := range attrs {
		out[i] = wireAttr{Font: a.Font, Size: a.Size, Style: int(a.Style), Color: a.Color}
	}
	return out
}

func fromWireAttrs(attrs []wireAttr) []layout.TextAttr {
	out := make([]layout.TextAttr, len(attrs))
	for i, a := range attrs {
		out[i] = layout.TextAttr{Font: a.Font, Size: a.Size, Style: layout.StyleFlags(a.Style), Color: a.Color}
	}
	return out
}

// RangeError reports a decoded wrapper or family field whose value is out
// of range: a negative sep_roots or order, or a family type other than 1
// or 2.  Every decode site goes through SectionWrapper.UnmarshalJSON or
// Family.UnmarshalJSON, so such a file is rejected at load time.
type RangeError struct {
	Field string // "sep_roots", "order" or "type"
	Value int
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("wrapper: %s = %d is out of range", e.Field, e.Value)
}

// wireWrapper is the JSON form of a SectionWrapper.
type wireWrapper struct {
	Pref        string     `json:"pref"`
	SepStart    []string   `json:"sep_start,omitempty"`
	SepInterior []string   `json:"sep_interior,omitempty"`
	SepRoots    int        `json:"sep_roots,omitempty"`
	LBMs        []string   `json:"lbms,omitempty"`
	RBMs        []string   `json:"rbms,omitempty"`
	LBMAttrs    []wireAttr `json:"lbm_attrs,omitempty"`
	RecordAttrs []wireAttr `json:"record_attrs,omitempty"`
	LBMInside   bool       `json:"lbm_inside,omitempty"`
	Order       int        `json:"order"`
}

// MarshalJSON serializes the wrapper with compact paths in their textual
// notation.
func (w *SectionWrapper) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireWrapper{
		Pref:        w.Pref.String(),
		SepStart:    w.Sep.StartSigs,
		SepInterior: w.Sep.InteriorSigs,
		SepRoots:    w.Sep.RootsPerRecord,
		LBMs:        w.LBMs,
		RBMs:        w.RBMs,
		LBMAttrs:    toWireAttrs(w.LBMAttrs),
		RecordAttrs: toWireAttrs(w.RecordAttrs),
		LBMInside:   w.LBMInside,
		Order:       w.Order,
	})
}

// UnmarshalJSON restores a wrapper serialized by MarshalJSON.
func (w *SectionWrapper) UnmarshalJSON(data []byte) error {
	var ww wireWrapper
	if err := json.Unmarshal(data, &ww); err != nil {
		return err
	}
	if ww.SepRoots < 0 {
		return &RangeError{Field: "sep_roots", Value: ww.SepRoots}
	}
	if ww.Order < 0 {
		return &RangeError{Field: "order", Value: ww.Order}
	}
	pref, err := dom.ParseCompactPath(ww.Pref)
	if err != nil {
		return fmt.Errorf("wrapper: bad pref: %w", err)
	}
	w.Pref = pref
	w.Sep = Separator{StartSigs: ww.SepStart, InteriorSigs: ww.SepInterior, RootsPerRecord: ww.SepRoots}
	w.LBMs = ww.LBMs
	w.RBMs = ww.RBMs
	w.LBMAttrs = fromWireAttrs(ww.LBMAttrs)
	w.RecordAttrs = fromWireAttrs(ww.RecordAttrs)
	w.LBMInside = ww.LBMInside
	w.Order = ww.Order
	return nil
}

// wireFamily is the JSON form of a Family.
type wireFamily struct {
	Type        int        `json:"type"`
	Pref        string     `json:"pref"`
	SPref       string     `json:"spref,omitempty"`
	SepStart    []string   `json:"sep_start,omitempty"`
	SepInterior []string   `json:"sep_interior,omitempty"`
	SepRoots    int        `json:"sep_roots,omitempty"`
	LBMAttrs    []wireAttr `json:"lbm_attrs,omitempty"`
	KnownLBMs   []string   `json:"known_lbms,omitempty"`
}

// MarshalJSON serializes the family.
func (f *Family) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireFamily{
		Type:        int(f.Type),
		Pref:        f.Pref.String(),
		SPref:       f.SPref.String(),
		SepStart:    f.Sep.StartSigs,
		SepInterior: f.Sep.InteriorSigs,
		SepRoots:    f.Sep.RootsPerRecord,
		LBMAttrs:    toWireAttrs(f.LBMAttrs),
		KnownLBMs:   f.KnownLBMs,
	})
}

// UnmarshalJSON restores a family serialized by MarshalJSON.
func (f *Family) UnmarshalJSON(data []byte) error {
	var wf wireFamily
	if err := json.Unmarshal(data, &wf); err != nil {
		return err
	}
	if t := FamilyType(wf.Type); t != Type1 && t != Type2 {
		return &RangeError{Field: "type", Value: wf.Type}
	}
	if wf.SepRoots < 0 {
		return &RangeError{Field: "sep_roots", Value: wf.SepRoots}
	}
	pref, err := dom.ParseCompactPath(wf.Pref)
	if err != nil {
		return fmt.Errorf("wrapper: bad family pref: %w", err)
	}
	spref, err := dom.ParseCompactPath(wf.SPref)
	if err != nil {
		return fmt.Errorf("wrapper: bad family spref: %w", err)
	}
	f.Type = FamilyType(wf.Type)
	f.Pref = pref
	f.SPref = spref
	f.Sep = Separator{StartSigs: wf.SepStart, InteriorSigs: wf.SepInterior, RootsPerRecord: wf.SepRoots}
	f.LBMAttrs = fromWireAttrs(wf.LBMAttrs)
	f.KnownLBMs = wf.KnownLBMs
	return nil
}
