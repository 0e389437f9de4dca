package llm

import "context"

// Role of a chat message.
type Role string

// Chat roles.
const (
	RoleSystem    Role = "system"
	RoleUser      Role = "user"
	RoleAssistant Role = "assistant"
)

// Message is one chat turn.
type Message struct {
	Role    Role
	Content string
}

// Request is a chat-completion request. Round distinguishes repeated
// experiment rounds over the same prompt: a real API call would resample;
// the simulator folds Round into its seed.
type Request struct {
	Model    string
	Messages []Message
	Round    int
}

// Usage is the token/cost/latency accounting of one response. Latency and
// cost are *virtual*: they follow the profile's throughput and price tables
// rather than wall-clock time (DESIGN.md §3, substitution 4).
type Usage struct {
	InputTokens    int     `json:"input_tokens"`
	OutputTokens   int     `json:"output_tokens"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	CostUSD        float64 `json:"cost_usd"`
	// Retries counts extra provider attempts spent by the Retrying wrapper
	// recovering from transient failures (0 when every request succeeds
	// first try).
	Retries int `json:"retries"`
}

// Add accumulates v into u field by field.
func (u *Usage) Add(v Usage) {
	u.InputTokens += v.InputTokens
	u.OutputTokens += v.OutputTokens
	u.VirtualSeconds += v.VirtualSeconds
	u.CostUSD += v.CostUSD
	u.Retries += v.Retries
}

// Response is a chat completion.
type Response struct {
	Text  string
	Usage Usage
}

// Client is the provider interface LPO drives. Implementations must be safe
// for concurrent Complete calls and must honor context cancellation: the
// engine fans requests out across a worker pool and cancels in-flight work
// when its context ends. Exactly one implementation exists in this offline
// reproduction (Sim); the interface keeps the pipeline compatible with a
// real HTTP-backed provider.
type Client interface {
	Complete(ctx context.Context, req Request) (Response, error)
	Profile() Profile
}

// EstimateTokens approximates the token count of a text the way API billing
// does (~4 characters per token).
func EstimateTokens(text string) int {
	n := len(text) / 4
	if n == 0 && len(text) > 0 {
		n = 1
	}
	return n
}
