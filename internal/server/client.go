package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/frame"
)

// Client drives the server's HTTP API. It is the programmatic face of
// the wire protocol, shared by cmd/idgload, the conformance tests and
// the CI integration pass.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8321".
	Base string
	// Tenant is sent as the X-Tenant header ("default" when empty).
	Tenant string
	// HTTP overrides the transport (http.DefaultClient when nil).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	return c.http().Do(req)
}

// apiError decodes the server's JSON error body into a Go error.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

func (c *Client) postJSON(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.Base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// SessionInfo is the server's answer to a session open.
type SessionInfo struct {
	SessionID         string `json:"session_id"`
	NrBaselines       int    `json:"nr_baselines"`
	NrTimesteps       int    `json:"nr_timesteps"`
	NrChannels        int    `json:"nr_channels"`
	MaxInflightChunks int    `json:"max_inflight_chunks"`
}

// CreateSession opens an observation session.
func (c *Client) CreateSession(cfg SessionConfig) (SessionInfo, error) {
	var info SessionInfo
	err := c.postJSON("/v1/sessions", cfg, &info)
	return info, err
}

// FrameWriter encodes frames onto a stream request body.
type FrameWriter struct {
	w io.Writer
}

// WriteVis sends one run of samples (8 float32 per visibility) of a
// baseline.
func (fw *FrameWriter) WriteVis(baseline, sampleOffset int, samples []float32) error {
	f, err := EncodeVis(baseline, sampleOffset, samples)
	if err != nil {
		return err
	}
	return frame.Write(fw.w, f)
}

// StreamVis opens one chunk-stream request and calls write to emit
// frames; the request body streams as write produces them. A FrameDone
// terminator is appended automatically.
func (c *Client) StreamVis(sessionID string, write func(w *FrameWriter) error) error {
	pr, pw := io.Pipe()
	go func() {
		err := write(&FrameWriter{w: pw})
		if err == nil {
			err = frame.Write(pw, frame.Frame{Type: FrameDone})
		}
		pw.CloseWithError(err)
	}()
	req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/sessions/"+sessionID+"/chunks", pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-idg-frames")
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	resp.Body.Close()
	return nil
}

// Finalize runs the session's gridding pass and returns the result.
// It blocks for the duration of the pass.
func (c *Client) Finalize(sessionID string) (Result, error) {
	var res Result
	err := c.postJSON("/v1/sessions/"+sessionID+"/finalize", struct{}{}, &res)
	return res, err
}

// FetchGridSHA256 streams the finished grid and returns the hex
// SHA-256 of its bytes — by construction the same hash as
// Result.SHA256, so a client can verify the transfer end to end. A body
// that ends short of its declared length is an error, not a hash.
func (c *Client) FetchGridSHA256(sessionID string) (string, int64, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/sessions/"+sessionID+"/grid", nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := c.do(req)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode >= 300 {
		return "", 0, apiError(resp)
	}
	defer resp.Body.Close()
	h := sha256.New()
	n, err := io.Copy(h, resp.Body)
	if err != nil {
		return "", n, err
	}
	if n != resp.ContentLength {
		return "", n, fmt.Errorf("server: grid body of %d bytes, %d declared", n, resp.ContentLength)
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// Delete releases the session.
func (c *Client) Delete(sessionID string) error {
	req, err := http.NewRequest(http.MethodDelete, c.Base+"/v1/sessions/"+sessionID, nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusNotFound {
		return apiError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
