package radio

import "math"

// Modulation describes a PHY rate: its bit rate and the mapping from SNR to
// bit error probability. The paper's testbed fixed all transmissions at
// 1 Mb/s (DSSS DBPSK); other rates are provided for the bit-rate sweep
// extension.
type Modulation struct {
	Name string
	// BitRate in bits per second, used for airtime.
	BitRate float64
	// ProcessingGain is the spreading gain (bandwidth / bit rate) applied
	// to the SNR before the BER curve, e.g. 11 for 1 Mb/s DSSS in 22 MHz.
	ProcessingGain float64
	// ber maps post-processing-gain Eb/N0 (linear) to bit error rate.
	ber func(ebn0 float64) float64
}

// qfunc is the Gaussian tail probability Q(x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// Standard modulations.
var (
	// DSSS1Mbps is 802.11 DBPSK at 1 Mb/s — the rate used throughout the
	// paper's experiments. Non-coherent DBPSK: Pb = 1/2 exp(-Eb/N0).
	DSSS1Mbps = Modulation{
		Name:           "DSSS-DBPSK-1Mbps",
		BitRate:        1e6,
		ProcessingGain: 11,
		ber:            func(e float64) float64 { return 0.5 * math.Exp(-e) },
	}

	// DSSS2Mbps is 802.11 DQPSK at 2 Mb/s.
	DSSS2Mbps = Modulation{
		Name:           "DSSS-DQPSK-2Mbps",
		BitRate:        2e6,
		ProcessingGain: 5.5,
		// Approximate differential QPSK by a 2.3 dB penalty over DBPSK.
		ber: func(e float64) float64 { return 0.5 * math.Exp(-e/1.7) },
	}

	// CCK11Mbps approximates 802.11b CCK at 11 Mb/s.
	CCK11Mbps = Modulation{
		Name:           "CCK-11Mbps",
		BitRate:        11e6,
		ProcessingGain: 2,
		ber:            func(e float64) float64 { return qfunc(math.Sqrt(2 * e / 2.2)) },
	}

	// OFDM6Mbps approximates 802.11g BPSK rate-1/2 OFDM at 6 Mb/s.
	OFDM6Mbps = Modulation{
		Name:           "OFDM-BPSK-6Mbps",
		BitRate:        6e6,
		ProcessingGain: 2, // coding gain proxy
		ber:            func(e float64) float64 { return qfunc(math.Sqrt(2 * e)) },
	}
)

// Modulations lists the built-in rates, lowest first.
func Modulations() []Modulation {
	return []Modulation{DSSS1Mbps, DSSS2Mbps, OFDM6Mbps, CCK11Mbps}
}

// BER returns the bit error rate at the given SNR (dB). The modulation's
// processing gain is applied internally.
func (m Modulation) BER(snrDB float64) float64 {
	snrLin := math.Pow(10, snrDB/10)
	ebn0 := snrLin * m.ProcessingGain
	b := m.ber(ebn0)
	if b > 0.5 {
		b = 0.5
	}
	if b < 0 {
		b = 0
	}
	return b
}

// PER returns the probability that a frame of the given size is corrupted
// at the given SNR, assuming independent bit errors:
// PER = 1 - (1-BER)^bits.
func (m Modulation) PER(snrDB float64, bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	ber := m.BER(snrDB)
	if ber == 0 {
		return 0
	}
	bits := float64(8 * bytes)
	// log1p formulation is stable for tiny BER.
	return 1 - math.Exp(bits*math.Log1p(-ber))
}

// Airtime returns the transmission duration in seconds of a frame of the
// given size, including the 802.11 long preamble and PLCP header (192 us
// at DSSS rates; used as a fixed per-frame PHY cost for all rates here).
func (m Modulation) Airtime(bytes int) float64 {
	const plcp = 192e-6
	return plcp + float64(8*bytes)/m.BitRate
}
