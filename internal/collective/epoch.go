package collective

import (
	"errors"
	"fmt"
	"strings"
)

// Epoch fencing. Every group incarnation carries an epoch (CollInit
// distributes it; in-process groups pick their own), and each transport
// tier — hub lanes, stream edges, local edges — rejects traffic from an
// older incarnation with a StaleEpochError instead of hanging or silently
// mixing data. This is what makes elastic membership
// safe: after a rebuild, a zombie rank still holding the previous epoch's
// endpoint cannot corrupt the group that replaced it.

// staleEpochMarker is the substring every stale-epoch rejection carries. It
// is part of the error contract: rejections cross process boundaries as
// strings (rpc remote errors, stream resets), so IsStaleEpoch matches on it
// when the typed value has been flattened away.
const staleEpochMarker = "stale epoch"

// StaleEpochError is the typed rejection a superseded group incarnation
// gets: the sender (or receiver) holds epoch Have, but the group has moved
// on to Current.
type StaleEpochError struct {
	Group   string
	Have    uint64
	Current uint64
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("collective: %s %d for group %q (current epoch %d)",
		staleEpochMarker, e.Have, e.Group, e.Current)
}

// IsStaleEpoch reports whether err is a stale-epoch rejection — either the
// typed error itself or its string form after crossing a process boundary
// (rpc remote error, stream reset text).
func IsStaleEpoch(err error) bool {
	if err == nil {
		return false
	}
	var se *StaleEpochError
	if errors.As(err, &se) {
		return true
	}
	return strings.Contains(err.Error(), staleEpochMarker)
}
