package scalability

import (
	"encoding/json"
	"io"
	"math"
)

// ExportedAnalysis is the JSON-friendly projection of an Analysis.
type ExportedAnalysis struct {
	Design        string             `json:"design"`
	Family        string             `json:"family"`
	PerQubitW     map[string]float64 `json:"per_qubit_w"`
	StageLimit    map[string]float64 `json:"stage_limit"`
	LogicalError  float64            `json:"logical_error"`
	ErrorLimit    float64            `json:"error_limit"`
	MaxQubits     float64            `json:"max_qubits"`
	Binding       string             `json:"binding"`
	MeetsNearTerm bool               `json:"meets_near_term"`
}

// Export converts an Analysis for serialisation (infinities become -1,
// which JSON cannot carry).
func Export(a Analysis) ExportedAnalysis {
	e := ExportedAnalysis{
		Design:        a.Design.Name,
		Family:        a.Design.Family.String(),
		PerQubitW:     map[string]float64{},
		StageLimit:    map[string]float64{},
		LogicalError:  a.LogicalError,
		ErrorLimit:    finite(a.ErrorLimit),
		MaxQubits:     finite(a.MaxQubits),
		Binding:       string(a.Binding),
		MeetsNearTerm: a.MeetsNearTerm,
	}
	for st, w := range a.PerQubit {
		e.PerQubitW[st.String()] = w
	}
	for st, l := range a.StageLimit {
		e.StageLimit[st.String()] = finite(l)
	}
	return e
}

func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// WriteJSON streams a set of analyses as indented JSON.
func WriteJSON(w io.Writer, as []Analysis) error {
	out := make([]ExportedAnalysis, len(as))
	for i, a := range as {
		out[i] = Export(a)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
