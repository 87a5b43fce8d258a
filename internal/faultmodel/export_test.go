package faultmodel

// NewCallbackInjector builds a single-site model's injector as the
// per-instruction callbacks it was before its countdown became engine data:
// the reference TestSingleSiteSpecDifferential holds the spec to.
var NewCallbackInjector = newCallbackInjector
