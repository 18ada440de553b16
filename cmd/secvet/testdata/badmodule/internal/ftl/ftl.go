// Package ftl reintroduces the accounting bug the audit ledger exists
// to catch: a physical destruction that fires its lifecycle hook by
// hand instead of through the noteDestroyed reporter and never reports
// to the ledger, so the copy's T_insecure window stays open forever.
package ftl

// PPA is a physical page address.
type PPA int32

// Hooks is the lifecycle hook bundle auditcheck keys on.
type Hooks struct {
	Destroyed func(p PPA, file uint64)
}

// FTL is the fake translation layer.
type FTL struct {
	hooks  Hooks
	fileOf []uint64
}

// Lock destroys the page and tells only the hook.
func (f *FTL) Lock(p PPA) {
	if f.hooks.Destroyed != nil {
		f.hooks.Destroyed(p, f.fileOf[p])
	}
}
