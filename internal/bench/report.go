package bench

import (
	"fmt"
	"strings"
)

// ExperimentNames are the experiments Run knows, in the paper's order; "all"
// and "figures" both expand to the whole list. Everything here runs on the
// virtual platform — host measurements live in benchmark/.
var ExperimentNames = []string{"table1", "fig7", "fig8", "fig9", "fig10", "fig11"}

// Run renders the named experiments in order.
func Run(exps []string) (string, error) {
	var texts []string
	for _, exp := range exps {
		names := []string{exp}
		if exp == "all" || exp == "figures" {
			names = ExperimentNames
		}
		for _, name := range names {
			var text string
			var err error
			switch name {
			case "table1":
				text = TableI()
			case "fig7":
				text, err = Fig7()
			case "fig8":
				text, err = Fig8()
			case "fig9":
				text = Fig9()
			case "fig10":
				text, err = Fig10()
			case "fig11":
				text, err = Fig11()
			default:
				err = fmt.Errorf("bench: unknown experiment %q (want all|figures|%s)",
					name, strings.Join(ExperimentNames, "|"))
			}
			if err != nil {
				return "", err
			}
			texts = append(texts, text)
		}
	}
	return strings.Join(texts, "\n"), nil
}
