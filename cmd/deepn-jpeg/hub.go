// Hub-facing subcommands: `deepn-jpeg hub serve|keygen` runs the origin
// side of profile distribution, and the profiles push/pull/sign/diff/gc
// verbs cover the lifecycle around it — publish a calibration, fetch it
// on a fleet node, sign and verify artifacts offline, compare two
// calibrations, and bound local stores.
package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/base64"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/profile"
	"repro/internal/profilehub"
)

func runHub(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: deepn-jpeg hub <serve|keygen> [flags]")
	}
	switch sub, rest := args[0], args[1:]; sub {
	case "serve":
		return runHubServe(rest)
	case "keygen":
		return runHubKeygen(rest)
	default:
		return fmt.Errorf("unknown hub subcommand %q (want serve or keygen)", sub)
	}
}

// runHubServe publishes a profile directory over the hub wire protocol
// until SIGINT/SIGTERM. One process with a directory of .dnp files is a
// complete origin: signed index, content-addressed blobs, push intake.
func runHubServe(args []string) error {
	fs := flag.NewFlagSet("hub serve", flag.ExitOnError)
	addr := fs.String("addr", ":9701", "listen address")
	dir := fs.String("dir", "", "profile directory to publish")
	keyFile := fs.String("key", "", "Ed25519 private key file; signs the index and unsigned profiles")
	pushKey := fs.String("push-key", "", "require this X-Hub-Push-Key on POST /hub/v1/push (empty = open push)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("hub serve needs -dir")
	}
	opts := profilehub.OriginOptions{Dir: *dir, PushKey: *pushKey}
	signing := "unsigned"
	if *keyFile != "" {
		priv, err := profilehub.ReadPrivateKeyFile(*keyFile)
		if err != nil {
			return err
		}
		opts.SigningKey = priv
		signing = "signing as key " + profile.KeyID(priv.Public().(ed25519.PublicKey))
	}
	origin, err := profilehub.NewOrigin(opts)
	if err != nil {
		return err
	}
	ix, err := origin.Index()
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("deepn-jpeg hub serve: publishing %d profile(s) from %s on %s (%s)\n",
		len(ix.Profiles), *dir, l.Addr(), signing)
	srv := &http.Server{Handler: origin, ReadHeaderTimeout: 10 * time.Second}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	signal.Stop(sig)
	return <-done
}

// runHubKeygen writes a fresh Ed25519 key pair: <out> holds the private
// seed (0600) and <out>.pub the public key the fleet distributes.
func runHubKeygen(args []string) error {
	fs := flag.NewFlagSet("hub keygen", flag.ExitOnError)
	out := fs.String("out", "hub-signing.key", "private key output path; the public key lands at <out>.pub")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pub, priv, err := profilehub.GenerateKey()
	if err != nil {
		return err
	}
	if err := profilehub.WritePrivateKeyFile(*out, priv); err != nil {
		return err
	}
	if err := profilehub.WritePublicKeyFile(*out+".pub", pub); err != nil {
		return err
	}
	fmt.Printf("key %s written: private %s (keep secret), public %s\n", profile.KeyID(pub), *out, *out+".pub")
	return nil
}

// runProfilesPush publishes one profile file to a hub origin, optionally
// signing it locally first so the origin never needs the private key.
func runProfilesPush(args []string) error {
	fs := flag.NewFlagSet("profiles push", flag.ExitOnError)
	in := fs.String("in", "", "profile file (.dnp) to publish")
	origin := fs.String("origin", "", "hub origin base URL")
	pushKey := fs.String("push-key", "", "X-Hub-Push-Key credential")
	keyFile := fs.String("key", "", "Ed25519 private key file; attaches an offline signature to the push")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *origin == "" {
		return fmt.Errorf("profiles push needs -in and -origin")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	p, err := profile.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	req, err := http.NewRequest(http.MethodPost, *origin+profilehub.PushPath, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if *pushKey != "" {
		req.Header.Set("X-Hub-Push-Key", *pushKey)
	}
	if *keyFile != "" {
		priv, err := profilehub.ReadPrivateKeyFile(*keyFile)
		if err != nil {
			return err
		}
		rec := profile.Sign(priv, p.Ref(), data)
		req.Header.Set("X-Hub-Sig", base64.StdEncoding.EncodeToString(rec.Sig))
		req.Header.Set("X-Hub-Sig-Key-Id", rec.KeyID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusCreated:
		fmt.Printf("pushed %s (%d bytes, sha256 %s) to %s\n", p.Ref(), len(data), profile.BlobSHA256(data), *origin)
	case http.StatusOK:
		fmt.Printf("%s already published at %s (identical bytes)\n", p.Ref(), *origin)
	default:
		return fmt.Errorf("push rejected: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// runProfilesPull fetches one profile from a hub origin through the
// verified local cache and writes it under its canonical file name in
// -dir, which it creates when missing.
func runProfilesPull(args []string) error {
	fs := flag.NewFlagSet("profiles pull", flag.ExitOnError)
	ref := fs.String("ref", "", "profile to pull: name or name@version")
	origin := fs.String("origin", "", "hub origin base URL")
	outDir := fs.String("dir", ".", "directory to write the pulled profile into (created if missing)")
	cacheDir := fs.String("cache", "", "hub cache directory (default: user cache dir)")
	pubFile := fs.String("pub", "", "trusted Ed25519 public key file; require valid signatures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ref == "" || *origin == "" {
		return fmt.Errorf("profiles pull needs -ref and -origin")
	}
	name, version, _, err := profile.ParseRef(*ref)
	if err != nil {
		return err
	}
	copts := profilehub.ClientOptions{Origin: *origin, CacheDir: *cacheDir}
	if copts.CacheDir == "" {
		copts.CacheDir = defaultHubCacheDir()
	}
	if *pubFile != "" {
		if copts.TrustedKey, err = profilehub.ReadPublicKeyFile(*pubFile); err != nil {
			return err
		}
	}
	client, err := profilehub.NewClient(copts)
	if err != nil {
		return err
	}
	data, entry, err := client.Pull(context.Background(), name, version)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*outDir, entry.Ref()+profile.Ext)
	if err := profile.WriteFileAtomic(path, data); err != nil {
		return err
	}
	st := client.Stats()
	how := "fetched from origin"
	if st.BlobCacheHits > 0 {
		how = "served from local cache"
	}
	fmt.Printf("pulled %s (%d bytes, sha256 %s, %s) → %s\n", entry.Ref(), len(data), entry.SHA256, how, path)
	return nil
}

// defaultHubCacheDir places the CLI's pull cache under the per-user
// cache root.
func defaultHubCacheDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "deepn-jpeg", "hub")
	}
	return filepath.Join(os.TempDir(), "deepn-jpeg-hub")
}

// runProfilesSign writes (or, with -pub, verifies) the detached .sig
// sidecar of a profile file.
func runProfilesSign(args []string) error {
	fs := flag.NewFlagSet("profiles sign", flag.ExitOnError)
	in := fs.String("in", "", "profile file (.dnp)")
	keyFile := fs.String("key", "", "Ed25519 private key file (sign mode)")
	pubFile := fs.String("pub", "", "Ed25519 public key file (verify mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("profiles sign needs -in")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	p, err := profile.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	sigPath := *in + profile.SigExt
	switch {
	case *keyFile != "":
		priv, err := profilehub.ReadPrivateKeyFile(*keyFile)
		if err != nil {
			return err
		}
		rec := profile.Sign(priv, p.Ref(), data)
		if err := rec.WriteFile(sigPath); err != nil {
			return err
		}
		fmt.Printf("signed %s as key %s → %s\n", p.Ref(), rec.KeyID, sigPath)
		return nil
	case *pubFile != "":
		pub, err := profilehub.ReadPublicKeyFile(*pubFile)
		if err != nil {
			return err
		}
		rec, err := profile.ReadSignature(sigPath)
		if err != nil {
			return err
		}
		if err := rec.Verify(pub, p.Ref(), data); err != nil {
			return err
		}
		fmt.Printf("%s: signature by key %s verifies for %s\n", sigPath, rec.KeyID, p.Ref())
		return nil
	default:
		return fmt.Errorf("profiles sign needs -key (to sign) or -pub (to verify)")
	}
}

// runProfilesDiff compares two profiles' calibration content and exits
// non-zero when they differ, so scripts can gate rollouts on it.
func runProfilesDiff(args []string) error {
	fs := flag.NewFlagSet("profiles diff", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: deepn-jpeg profiles diff <a.dnp> <b.dnp>")
	}
	aPath, bPath := fs.Arg(0), fs.Arg(1)
	a, err := profile.Read(aPath)
	if err != nil {
		return err
	}
	b, err := profile.Read(bPath)
	if err != nil {
		return err
	}
	d := profile.Compare(a, b)
	if d.Identical() {
		fmt.Printf("%s (%s) and %s (%s): identical calibration content\n", aPath, a.Ref(), bPath, b.Ref())
		return nil
	}
	fmt.Print(d.String())
	return fmt.Errorf("%s and %s differ", aPath, bPath)
}

// runProfilesGC applies a retention policy to a profile directory.
func runProfilesGC(args []string) error {
	fs := flag.NewFlagSet("profiles gc", flag.ExitOnError)
	dir := fs.String("dir", "", "profile directory to collect")
	maxBytes := fs.Int64("max-bytes", 0, "byte budget for retained profiles (0 = unbounded)")
	maxVersions := fs.Int("max-versions", 0, "versions to keep per name (0 = unbounded)")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without deleting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("profiles gc needs -dir")
	}
	if *maxBytes == 0 && *maxVersions == 0 {
		return fmt.Errorf("profiles gc needs -max-bytes and/or -max-versions")
	}
	res, err := profile.GCDir(*dir, profile.GCPolicy{MaxBytes: *maxBytes, MaxVersionsPerName: *maxVersions}, *dryRun)
	if err != nil {
		return err
	}
	verb := "removed"
	if *dryRun {
		verb = "would remove"
	}
	for _, path := range res.Removed {
		fmt.Printf("%s %s\n", verb, path)
	}
	fmt.Printf("%s: %d file(s) %s, %d bytes retained\n", *dir, len(res.Removed), verb, res.RetainedBytes)
	if res.OverBudget {
		return fmt.Errorf("still over -max-bytes: every name's newest version is retained unconditionally")
	}
	return nil
}
