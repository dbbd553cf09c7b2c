package layers

import (
	"repro/internal/jsenv"
	"repro/internal/tensor"
)

// FitAsync trains like Fit but schedules one minibatch per event-loop task,
// yielding the "main thread" between batches — the pattern browser training
// uses (await tf.nextFrame()) so pages stay responsive while models train
// (Section 3.6; the UX behind Teachable Machine, Section 6.1). onDone is
// posted to the loop with the history when training completes.
//
// The returned Future also resolves with the history, for callers off the
// loop.
func (m *Sequential) FitAsync(loop *jsenv.Loop, x, y *tensor.Tensor, cfg FitConfig, onDone func(*History, error)) *jsenv.Future[*History] {
	fut := jsenv.NewFuture[*History]()
	finish := func(h *History, err error) {
		if onDone != nil {
			loop.Post(func() { onDone(h, err) })
		}
		fut.Resolve(h, err)
	}
	r, err := m.startFit(x, y, cfg)
	if err != nil {
		finish(nil, err)
		return fut
	}
	var step func()
	step = func() {
		if r.step() {
			finish(r.hist, nil)
			return
		}
		// Yield: re-post ourselves so interleaved events run between
		// batches (the tf.nextFrame() await of browser training loops).
		loop.Post(step)
	}
	loop.Post(step)
	return fut
}
