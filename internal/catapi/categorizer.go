package catapi

import (
	"context"

	"wwb/internal/taxonomy"
)

// Categorizer is the study's final site → category mapping after the
// Section 3.2 workflow: API labels for kept categories, Unknown for
// dropped ones, and hand-verified sets for Search Engines and Social
// Networks.
//
// The category of every labelled domain is computed once, when the
// categorizer is built, so Category is a table read for them. A domain
// outside the labels (a client-supplied /v1/site probe) is resolved
// afresh through the client on every call and leaves nothing behind.
type Categorizer struct {
	table  map[string]taxonomy.Category
	client *Client

	validation *Validation
	// verified maps domains to their manually confirmed category; it
	// overrides everything else.
	verified map[string]taxonomy.Category
}

// NewCategorizer builds the study categories of the labelled domains
// from their API labels, the validation outcome and the manually
// verified domain sets; client resolves every other domain.
func NewCategorizer(client *Client, labels map[string]taxonomy.Category, v *Validation, verified map[string]taxonomy.Category) *Categorizer {
	c := &Categorizer{
		table:      make(map[string]taxonomy.Category, len(labels)),
		client:     client,
		validation: v,
		verified:   verified,
	}
	for d, label := range labels {
		c.table[d] = c.category(d, label)
	}
	return c
}

// Category returns the study category for a domain.
func (c *Categorizer) Category(domain string) taxonomy.Category {
	if cat, ok := c.table[domain]; ok {
		return cat
	}
	// A background context never ends, so the lookup cannot fail.
	label, _ := c.client.Category(context.Background(), domain)
	return c.category(domain, label)
}

// category applies the workflow to one domain's API label.
func (c *Categorizer) category(domain string, label taxonomy.Category) taxonomy.Category {
	if cat, ok := c.verified[domain]; ok {
		return cat
	}
	// Degraded lookups pass through: the transport never answered, so
	// neither the flagship discard nor the validation bar applies.
	if label == taxonomy.Uncategorized {
		return label
	}
	// The two flagship categories are only trusted when manually
	// verified; everything else the API says about them is discarded
	// (paper: "we use only the sets of manually verified sites for
	// these two categories").
	if taxonomy.ManuallyVerified(label) {
		return taxonomy.Unknown
	}
	if c.validation != nil && c.validation.IsDropped(label) {
		return taxonomy.Unknown
	}
	return label
}

// VerifyDomains emulates the paper's manual pass over top-list
// domains: for each candidate domain, the reviewer (ground truth)
// confirms or rejects membership in cat. The confirmed mapping can be
// fed to NewCategorizer.
func VerifyDomains(svc *Service, domains []string, cat taxonomy.Category) map[string]taxonomy.Category {
	out := map[string]taxonomy.Category{}
	for _, d := range domains {
		if truth, ok := svc.TrueCategory(d); ok && truth == cat {
			out[d] = cat
		}
	}
	return out
}
